// Command spatial-cluster runs an N-replica serving tier: in-process
// replicas behind the cluster coordinator, with shard-aware routing,
// replicated registries, and cluster-wide atomic promote/rollback on
// /cluster/promote, /cluster/rollback, /cluster/status.
//
// Usage:
//
//	spatial-cluster -replicas 3 -addr 127.0.0.1:8200
//
// Smoke mode (CI) self-drives the failover check — train, promote,
// kill the shard owner, predict through the real gateway — and writes a
// status artifact:
//
//	spatial-cluster -smoke -out cluster-status.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gateway"
	"repro/internal/ml"
	"repro/internal/serving"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spatial-cluster:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spatial-cluster", flag.ContinueOnError)
	replicas := fs.Int("replicas", 3, "in-process replica count")
	addr := fs.String("addr", "127.0.0.1:8200", "coordinator listen address")
	heartbeat := fs.Duration("heartbeat", time.Second, "heartbeat sweep interval")
	smoke := fs.Bool("smoke", false, "run the CI failover smoke and exit")
	out := fs.String("out", "", "smoke: write the status artifact JSON here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicas < 1 {
		return errors.New("-replicas must be >= 1")
	}
	if *smoke {
		return runSmoke(*replicas, *out)
	}
	return serve(*replicas, *addr, *heartbeat)
}

// buildCluster assembles n in-process replicas joined into one cluster
// and trains two versions of the "demo" model through the coordinator
// (version 1 promoted, version 2 awaiting /cluster/promote).
func buildCluster(n int, heartbeat time.Duration, tel *telemetry.Registry) (*cluster.Cluster, []*cluster.Replica, error) {
	c := cluster.New(cluster.Config{
		HeartbeatInterval: heartbeat,
		Telemetry:         tel,
	})
	reps := make([]*cluster.Replica, 0, n)
	for i := 0; i < n; i++ {
		rp := cluster.NewReplica(fmt.Sprintf("replica-%d", i), serving.Config{})
		reps = append(reps, rp)
		if err := c.Join(rp); err != nil {
			return nil, nil, err
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		model, err := trainDemo(seed)
		if err != nil {
			return nil, nil, err
		}
		if _, err := c.Register("demo", model); err != nil {
			return nil, nil, err
		}
	}
	return c, reps, nil
}

// trainDemo fits a small logistic model on a separable synthetic table;
// distinct seeds give distinct content ids, so version history is real.
func trainDemo(seed int64) (ml.Classifier, error) {
	rng := rand.New(rand.NewSource(seed))
	tb := dataset.New("demo", []string{"f0", "f1"}, []string{"a", "b"})
	for i := 0; i < 160; i++ {
		y := i % 2
		x := []float64{float64(y)*4 - 2 + rng.NormFloat64()*0.4, rng.NormFloat64()}
		if err := tb.Append(x, y); err != nil {
			return nil, err
		}
	}
	model, err := ml.NewByName("lr", seed)
	if err != nil {
		return nil, err
	}
	if err := model.Fit(tb); err != nil {
		return nil, err
	}
	return model, nil
}

func serve(n int, addr string, heartbeat time.Duration) error {
	tel := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(tel)
	c, reps, err := buildCluster(n, heartbeat, tel)
	if err != nil {
		return err
	}
	defer func() {
		for _, rp := range reps {
			rp.Close()
		}
	}()
	c.Start()
	defer c.Stop()

	mux := http.NewServeMux()
	mux.Handle("/", c.Handler())
	mux.Handle("/metrics", tel.Handler())
	var servers wire.Servers
	if _, err := servers.Listen(addr, mux); err != nil {
		return err
	}
	fmt.Printf("cluster coordinator on http://%s (%d replicas; /predict, /cluster/status, /cluster/promote, /cluster/rollback, /metrics)\n", addr, n)
	return servers.Wait(context.Background())
}

// smokeArtifact is the status JSON the CI step uploads.
type smokeArtifact struct {
	Pass        bool               `json:"pass"`
	Replicas    int                `json:"replicas"`
	KilledOwner string             `json:"killedOwner"`
	Requests    int                `json:"requests"`
	Codes       map[string]int     `json:"codes"`
	Shed        int                `json:"shed"`
	Failures    []string           `json:"failures,omitempty"`
	Status      cluster.StatusInfo `json:"status"`
}

// runSmoke drives the failover path end to end on real components:
// cluster behind the real gateway, promote to v2, kill the shard owner,
// and a burst of predicts that must produce zero 5xx — sheds (429) are
// the only tolerated non-200s.
func runSmoke(n int, outPath string) error {
	tel := telemetry.NewRegistry()
	c, reps, err := buildCluster(n, 100*time.Millisecond, tel)
	if err != nil {
		return err
	}
	defer func() {
		for _, rp := range reps {
			rp.Close()
		}
	}()
	c.Start()
	defer c.Stop()

	// The coordinator, and the real gateway in front of it. The gateway
	// stops first at teardown: it owns the connections into the coordinator.
	gw := gateway.New(gateway.Config{HealthInterval: 100 * time.Millisecond})
	var servers wire.Servers
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		// The verdict is already decided; a loopback server that failed to
		// drain in a second was closed, which is all teardown needs.
		_ = servers.Shutdown(shutCtx, gw.Stop)
	}()
	coordURL, err := servers.Listen("127.0.0.1:0", c.Handler())
	if err != nil {
		return err
	}
	if err := gw.AddRoute("/ml", gateway.LeastConnections, coordURL); err != nil {
		return err
	}
	gw.Start()
	gwURL, err := servers.Listen("127.0.0.1:0", gw)
	if err != nil {
		return err
	}
	// post sends one request through the gateway and reports the answer's
	// HTTP status; only a failure to get any answer is an error.
	post := func(path string, in any) (int, string, error) {
		err := wire.Do(context.Background(), nil, http.MethodPost, gwURL+path, nil, in, nil)
		var status *wire.StatusError
		switch {
		case err == nil:
			return http.StatusOK, "", nil
		case errors.As(err, &status):
			return status.Status, status.Message, nil
		default:
			return 0, "", err
		}
	}

	art := smokeArtifact{Replicas: n, Codes: make(map[string]int)}
	fail := func(format string, a ...any) { art.Failures = append(art.Failures, fmt.Sprintf(format, a...)) }

	// Cluster-wide atomic promote to version 2, through the gateway.
	code, raw, err := post("/ml/cluster/promote", serving.PromoteRequest{Name: "demo", Version: 2})
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		fail("promote: http %d: %s", code, raw)
	}

	// Kill the shard owner of the demo model mid-run.
	owner := c.Owner("demo")
	art.KilledOwner = owner
	for _, rp := range reps {
		if rp.ID() == owner {
			rp.Kill()
		}
	}

	// Predict burst through the gateway: every request must come back
	// 200 or 429 (shed); any 5xx is a failover bug.
	predict := serving.PredictRequest{ModelID: "demo", Instances: [][]float64{{2.1, 0.0}, {-2.2, 0.3}}}
	const burst = 200
	art.Requests = burst
	for i := 0; i < burst; i++ {
		code, raw, err := post("/ml/predict", predict)
		if err != nil {
			fail("predict %d: %v", i, err)
			continue
		}
		art.Codes[fmt.Sprintf("%d", code)]++
		switch {
		case code == http.StatusOK:
		case code == http.StatusTooManyRequests:
			art.Shed++
		default:
			if len(art.Failures) < 5 {
				fail("predict %d: http %d: %s", i, code, raw)
			}
		}
	}

	// The survivors must all serve version 2.
	st := c.Status()
	art.Status = st
	for _, a := range st.Aliases {
		if a.Name == "demo" && a.Current != 2 {
			fail("canonical demo at version %d, want 2", a.Current)
		}
	}

	art.Pass = len(art.Failures) == 0
	raw2, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, raw2, 0o644); err != nil {
			return err
		}
	}
	fmt.Println(string(raw2))
	if !art.Pass {
		return fmt.Errorf("cluster smoke failed (%d failures)", len(art.Failures))
	}
	return nil
}
