package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/gateway"
	"repro/internal/ml"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// apiKey is the gateway key every benchmark client presents: the
// deployments run with authentication on, as a real one would.
const apiKey = "bench-key"

// trainSeed fixes the fixture. Only the request bodies follow -seed, so
// the program under test is the same program at every seed and set-up is
// the same deterministic CPU work on every run (N2).
const trainSeed = 1

// models is the trained fixture every workload deploys.
type models struct {
	table *dataset.Table // min-max scaled UC2 flow table the models trained on
	scale []float64      // per-feature standard deviation (LIME's perturbation scale)
	rf    ml.Classifier
	rf2   ml.Classifier // second rf version; cluster deployments only
	lgbm  ml.Classifier
	nn    ml.Classifier
	// nnBlob is the serialized nn the explain requests carry inline.
	nnBlob []byte
	fit    time.Duration // time spent inside Fit
}

// trainModels generates the UC2 flow table at scale times the paper's
// trace counts and trains rf, lgbm and nn on it (and a second rf when
// twoVersions), as POST /ml/train would.
func trainModels(scale int, twoVersions bool) (*models, error) {
	cfg := datagen.DefaultNetTrafficConfig()
	cfg.Web, cfg.Interactive, cfg.Video = cfg.Web*scale, cfg.Interactive*scale, cfg.Video*scale
	cfg.Seed = trainSeed
	table, _, err := datagen.NetTraffic(cfg)
	if err != nil {
		return nil, err
	}
	mm, err := dataset.FitMinMax(table)
	if err != nil {
		return nil, err
	}
	if err := mm.Transform(table); err != nil {
		return nil, err
	}
	std, err := dataset.FitScaler(table)
	if err != nil {
		return nil, err
	}
	m := &models{table: table, scale: std.Std}
	fit := func(algo string, seed int64) (ml.Classifier, error) {
		c, err := ml.NewByName(algo, seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := c.Fit(table); err != nil {
			return nil, fmt.Errorf("fit %s: %w", algo, err)
		}
		m.fit += time.Since(start)
		return c, nil
	}
	if m.rf, err = fit("rf", trainSeed); err != nil {
		return nil, err
	}
	if twoVersions {
		if m.rf2, err = fit("rf", trainSeed+1); err != nil {
			return nil, err
		}
	}
	if m.lgbm, err = fit("lgbm", trainSeed); err != nil {
		return nil, err
	}
	if m.nn, err = fit("nn", trainSeed); err != nil {
		return nil, err
	}
	if m.nnBlob, err = ml.MarshalModel(m.nn); err != nil {
		return nil, err
	}
	return m, nil
}

// servers owns loopback HTTP servers and joins their Serve goroutines.
type servers struct {
	list []*http.Server
	wg   sync.WaitGroup
}

// serve binds h to a fresh loopback port and returns its base URL.
func (s *servers) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.list = append(s.list, srv)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Serve returns ErrServerClosed after Shutdown; any other error
		// surfaces as failed requests, which the run counts.
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

func (s *servers) shutdown() error {
	releasePooledConns()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var errs []error
	for _, srv := range s.list {
		errs = append(errs, srv.Shutdown(ctx))
	}
	s.wg.Wait()
	return errors.Join(errs...)
}

// releasePooledConns closes the idle connections the gateway's reverse
// proxy and the cluster's HTTPBackends keep in http.DefaultTransport.
// Under two callers the transport now and then dials a connection it
// never sends on; a server counts such a connection as active for five
// seconds, and Shutdown would sit those out.
func releasePooledConns() {
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// gatewayOptions is the front door of every deployment: API key on, a
// rate limiter that is consulted on every request but never binds, and
// the response cache off so every request reaches the service.
func gatewayOptions() core.Options {
	return core.Options{APIKeys: []string{apiKey}, RatePerSecond: 1e9, Burst: 1 << 30}
}

// newGateway is that front door where core.System does not build it.
func newGateway() *gateway.Gateway {
	o := gatewayOptions()
	return gateway.New(gateway.Config{APIKeys: o.APIKeys, RatePerSecond: o.RatePerSecond, Burst: o.Burst})
}

// stack is one deployed system under test.
type stack struct {
	base string // gateway base URL
	gw   *gateway.Gateway
	sys  *core.System // local deployments
	tier *clusterTier // cluster deployments
}

// deployLocal stands up core.System over loopback with rf, lgbm and nn
// registered under their algorithm aliases.
func deployLocal(m *models) (*stack, error) {
	sys := core.NewSystem(gatewayOptions())
	for _, d := range []struct {
		alias string
		model ml.Classifier
	}{{"rf", m.rf}, {"lgbm", m.lgbm}, {"nn", m.nn}} {
		metrics, err := ml.Evaluate(d.model, m.table)
		if err != nil {
			return nil, err
		}
		if _, err := sys.ML.StoreModel(d.alias, d.model, metrics); err != nil {
			return nil, err
		}
	}
	base, _, err := sys.DeployLocal(context.Background())
	if err != nil {
		return nil, err
	}
	return &stack{base: base, gw: sys.Gateway, sys: sys}, nil
}

// upstream returns the base URL the gateway proxies prefix to, for the
// ladder rung that calls a service without the gateway.
func (s *stack) upstream(prefix string) string {
	for _, rm := range s.gw.RouteMetrics() {
		if rm.Prefix == prefix && len(rm.Upstreams) > 0 {
			return rm.Upstreams[0].URL
		}
	}
	return ""
}

// servingTelemetry lists the registries the deployment's serving
// runtimes record into: one for a local deployment, one per replica for
// a cluster.
func (s *stack) servingTelemetry() []*telemetry.Registry {
	if s.tier != nil {
		var regs []*telemetry.Registry
		for _, rp := range s.tier.replicas {
			regs = append(regs, rp.Runtime().Telemetry())
		}
		return regs
	}
	return []*telemetry.Registry{s.sys.ML.Telemetry()}
}

// serviceTracers lists the span rings behind the gateway. The cluster
// tier's handlers carry no telemetry middleware, so it has none.
func (s *stack) serviceTracers() []*telemetry.Tracer {
	if s.sys == nil {
		return nil
	}
	return []*telemetry.Tracer{s.sys.ML.Tracer(), s.sys.SHAP.Tracer(), s.sys.LIME.Tracer()}
}

func (s *stack) close() error {
	if s.tier != nil {
		return s.tier.close()
	}
	releasePooledConns()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.sys.Shutdown(ctx)
	s.sys.ML.Close()
	return err
}

// clusterNames are the model aliases of a cluster deployment; the ring
// shards by alias, so six names spread over the three replicas.
var clusterNames = []string{"flow-a", "flow-b", "flow-c", "flow-d", "flow-e", "flow-f"}

const numReplicas = 3

// clusterTier is a coordinator routing to numReplicas serving replicas.
type clusterTier struct {
	cluster  *cluster.Cluster
	replicas []*cluster.Replica
	coordURL string // cluster.Handler over loopback, "" when never served
	gw       *gateway.Gateway
	srv      servers
}

// newClusterTier builds the replicas and the coordinator and registers
// rf as version 1 and rf2 as version 2 of every name. Over HTTP each
// replica is its own server reached through an HTTPBackend, as separate
// processes would be; otherwise the coordinator calls them in process.
func newClusterTier(m *models, overHTTP bool) (*clusterTier, error) {
	t := &clusterTier{cluster: cluster.New(cluster.Config{})}
	for i := 0; i < numReplicas; i++ {
		id := fmt.Sprintf("replica-%d", i)
		rp := cluster.NewReplica(id, serving.Config{})
		t.replicas = append(t.replicas, rp)
		var backend cluster.Backend = rp
		if overHTTP {
			url, err := t.srv.serve(rp.Handler())
			if err != nil {
				return nil, errors.Join(err, t.close())
			}
			backend = cluster.NewHTTPBackend(id, url, nil)
		}
		if err := t.cluster.Join(backend); err != nil {
			return nil, errors.Join(err, t.close())
		}
	}
	for _, name := range clusterNames {
		for _, c := range []ml.Classifier{m.rf, m.rf2} {
			if _, err := t.cluster.Register(name, c); err != nil {
				return nil, errors.Join(err, t.close())
			}
		}
	}
	t.cluster.Start()
	return t, nil
}

// deployCluster puts the gateway in front of cluster.Handler in front of
// three replica servers.
func deployCluster(m *models) (*stack, error) {
	t, err := newClusterTier(m, true)
	if err != nil {
		return nil, err
	}
	if t.coordURL, err = t.srv.serve(t.cluster.Handler()); err != nil {
		return nil, errors.Join(err, t.close())
	}
	t.gw = newGateway()
	if err := t.gw.AddRoute("/ml", gateway.RoundRobin, t.coordURL); err != nil {
		return nil, errors.Join(err, t.close())
	}
	base, err := t.srv.serve(t.gw)
	if err != nil {
		return nil, errors.Join(err, t.close())
	}
	t.gw.Start()
	return &stack{base: base, gw: t.gw, tier: t}, nil
}

func (t *clusterTier) close() error {
	if t.gw != nil {
		t.gw.Stop()
	}
	t.cluster.Stop()
	err := t.srv.shutdown()
	for _, rp := range t.replicas {
		rp.Close()
	}
	return err
}
