// Command spatial-scenario runs declarative chaos + attack + drift
// campaigns against the SPATIAL stack and emits telemetry-scored
// verdicts.
//
// Usage:
//
//	spatial-scenario -list
//	spatial-scenario -run flash-crowd-poison -out scorecard.json
//	spatial-scenario -smoke -out scorecards/
//	spatial-scenario -run error-burst-breaker -live
//
// Without -live a scenario runs against the deterministic virtual world
// (fake clock, closed-form service model): a 30-second campaign finishes
// in milliseconds and the scorecard bytes reproduce exactly across runs.
// With -live the command self-hosts the real stack in-process — model
// service behind the chaos proxy behind the API gateway — and drives it
// with real HTTP load on the wall clock. Scenarios with a cluster spec
// run virtually only: -live refuses them, and -smoke -live skips them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/ml"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spatial-scenario:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spatial-scenario", flag.ContinueOnError)
	list := fs.Bool("list", false, "list registered scenarios and exit")
	name := fs.String("run", "", "scenario name to run")
	smoke := fs.Bool("smoke", false, "run the deterministic smoke subset")
	out := fs.String("out", "", "scorecard output: file for -run, directory for -smoke (default stdout / .)")
	load := fs.String("load", "", "JSON file with extra scenarios to register")
	live := fs.Bool("live", false, "drive the real in-process stack over HTTP instead of the virtual world")
	seed := fs.Int64("seed", 0, "override the scenario seed (0 = keep)")
	strict := fs.Bool("strict", false, "exit non-zero when any scorecard verdict is \"fail\"")
	if err := fs.Parse(args); err != nil {
		return err
	}

	lib := scenario.Default()
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		names, err := lib.LoadJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded %d scenario(s) from %s\n", len(names), *load)
	}

	if *list {
		for _, sc := range lib.All() {
			tag := " "
			if sc.Smoke {
				tag = "S"
			}
			fmt.Fprintf(stdout, "%s %-24s %8s  %s\n", tag, sc.Name, sc.Duration(), sc.Description)
		}
		return nil
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	var targets []scenario.Scenario
	switch {
	case *smoke:
		targets = lib.Smoke()
	case *name != "":
		sc, ok := lib.Get(*name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (use -list)", *name)
		}
		targets = []scenario.Scenario{sc}
	default:
		return errors.New("nothing to do: pass -run NAME, -smoke, or -list")
	}

	failed := 0
	for _, sc := range targets {
		if *seed != 0 {
			sc.Seed = *seed
		}
		rec, err := execute(ctx, sc, *live)
		if *smoke && errors.Is(err, scenario.ErrLiveCluster) {
			fmt.Fprintf(stdout, "%-24s skipped: %v\n", sc.Name, scenario.ErrLiveCluster)
			continue
		}
		if err != nil {
			return fmt.Errorf("run %s: %w", sc.Name, err)
		}
		card := scenario.Score(rec)
		if card.Verdict == "fail" {
			failed++
		}
		buf, err := card.JSON()
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		switch {
		case *smoke:
			dir := *out
			if dir == "" {
				dir = "."
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(dir, sc.Name+".scorecard.json")
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-24s verdict=%-8s requests=%d shed=%d sloViolation=%.0fs -> %s\n",
				sc.Name, card.Verdict, card.Requests, card.Shed, card.SLOViolationSeconds, path)
		case *out != "":
			if err := os.WriteFile(*out, buf, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: verdict=%s -> %s\n", sc.Name, card.Verdict, *out)
		default:
			if _, err := stdout.Write(buf); err != nil {
				return err
			}
		}
	}
	if *strict && failed > 0 {
		return fmt.Errorf("%d scenario(s) failed", failed)
	}
	return nil
}

// execute runs one scenario in the chosen mode.
func execute(ctx context.Context, sc scenario.Scenario, live bool) (*scenario.Record, error) {
	if !live {
		return scenario.RunVirtual(ctx, sc)
	}
	return runLive(ctx, sc)
}

// predictRequest is the live model service's wire format.
type predictRequest struct {
	Features []float64 `json:"features"`
}

// predictResponse carries the predicted class index.
type predictResponse struct {
	Class int `json:"class"`
}

// runLive self-hosts the real stack — model service, chaos proxy, API
// gateway — on loopback listeners and drives it with HTTP load on the
// wall clock. The chaos proxy sits between the gateway and the service,
// exactly where a misbehaving upstream would: latency faults slow the
// route, error bursts surface as gateway 5xx, resets feed the gateway's
// circuit breaker.
func runLive(ctx context.Context, sc scenario.Scenario) (*scenario.Record, error) {
	stream, err := scenario.BuildWorkload(sc.Workload, sc.Seed)
	if err != nil {
		return nil, err
	}

	// Model service: score posted feature rows with the workload model.
	// The gateway strips its route prefix before proxying, so the
	// service answers on "/" (a request for gw/predict arrives here
	// as a request for /).
	model := stream.Model()
	mux := http.NewServeMux()
	mux.HandleFunc("/", wire.Handle(func(_ context.Context, req *predictRequest) (predictResponse, error) {
		return predictResponse{Class: ml.Predict(model, req.Features)}, nil
	}))

	// One lifecycle for the three loopback servers. The gateway stops
	// first at teardown: it owns the pooled connections into the proxy.
	reg := telemetry.NewRegistry()
	gw := gateway.New(gateway.Config{Telemetry: reg})
	var servers wire.Servers
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), time.Second)
		defer cancel()
		// The record is already built; a loopback server that failed to
		// drain in a second was closed, which is all teardown needs.
		_ = servers.Shutdown(shutCtx, gw.Stop)
	}()
	svcURL, err := servers.Listen("127.0.0.1:0", mux)
	if err != nil {
		return nil, err
	}

	chaos, err := scenario.NewChaosProxy(svcURL, clock.Real(), sc.Seed)
	if err != nil {
		return nil, err
	}
	chaosURL, err := servers.Listen("127.0.0.1:0", chaos)
	if err != nil {
		return nil, err
	}

	if err := gw.AddRoute("/predict", gateway.RoundRobin, chaosURL); err != nil {
		return nil, err
	}
	gwURL, err := servers.Listen("127.0.0.1:0", gw)
	if err != nil {
		return nil, err
	}

	body, err := json.Marshal(predictRequest{Features: stream.Reference().X[0]})
	if err != nil {
		return nil, err
	}
	sampler := &loadgen.HTTPSampler{
		Method: http.MethodPost,
		URL:    gwURL + "/predict",
		Body:   body,
		Client: &http.Client{Timeout: 5 * time.Second},
	}

	mgr := sensor.NewManager(nil)
	if err := stream.RegisterSensors(mgr, scenario.Duration(sc.SensorPeriod())); err != nil {
		return nil, err
	}

	fmt.Fprintf(os.Stderr, "live stack up: service=%s chaos=%s gateway=%s (%s, %s)\n",
		svcURL, chaosURL, gwURL, sc.Name, sc.Duration())
	return scenario.Run(ctx, sc, scenario.Env{
		Clock:     clock.Real(),
		Sampler:   sampler,
		Injector:  chaos,
		Stream:    stream,
		Sensors:   mgr,
		Telemetry: reg,
	})
}
