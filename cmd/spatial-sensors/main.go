// Command spatial-sensors instruments a deployed SPATIAL system with AI
// sensors from the outside: it measures a served model's performance and
// evasion resilience through the gateway on a fixed cadence and publishes
// the readings to the AI dashboard — the paper's "AI sensors instrumented
// as a concurrent process to monitor the behaviour of the overall
// application".
//
// Usage:
//
//	spatial-sensors -gateway http://127.0.0.1:8100 \
//	  -dashboard http://127.0.0.1:8088 \
//	  -model m0001 -test holdout.csv -interval 5s -min-accuracy 0.9 \
//	  -metrics-addr 127.0.0.1:8109
//
// The test CSV must be in the dataset.WriteCSV format (feature columns
// plus a final label column). The sensors' own collection metrics
// (attempts, failures, durations, alerts) are scrapeable in Prometheus
// format at http://<metrics-addr>/metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dashboard"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/sensor"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spatial-sensors:", err)
		os.Exit(1)
	}
}

// predictSlice is how many holdout rows one predict carries. The serving
// runtime refuses a request with more rows than its admission watermark
// (768 by default) outright, and a UC1-size holdout is ≈3.5k windows.
const predictSlice = 256

// holdoutAccuracy scores the served model on the holdout, a slice of rows
// at a time.
func holdoutAccuracy(ctx context.Context, mlc *service.Client, modelID string, test *dataset.Table) (float64, error) {
	correct := 0
	for lo := 0; lo < test.Len(); lo += predictSlice {
		hi := min(lo+predictSlice, test.Len())
		resp, err := mlc.Predict(ctx, service.PredictRequest{ModelID: modelID, Instances: test.X[lo:hi]})
		if err != nil {
			return 0, err
		}
		for i, c := range resp.Classes {
			if c == test.Y[lo+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(test.Len()), nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("spatial-sensors", flag.ContinueOnError)
	gatewayURL := fs.String("gateway", "http://127.0.0.1:8100", "SPATIAL gateway base URL")
	dashboardURL := fs.String("dashboard", "http://127.0.0.1:8088", "AI dashboard base URL")
	modelID := fs.String("model", "", "model id on the ML-pipeline service (required)")
	testCSV := fs.String("test", "", "held-out labelled CSV for the performance sensor (required)")
	interval := fs.Duration("interval", 5*time.Second, "sampling interval")
	minAccuracy := fs.Float64("min-accuracy", 0.8, "alert threshold for the performance sensor")
	eps := fs.Float64("eps", 0.1, "FGSM budget used by the resilience sensor")
	apiKey := fs.String("apikey", "", "gateway API key (optional)")
	metricsAddr := fs.String("metrics-addr", "127.0.0.1:8109", "address serving this process's /metrics (empty to disable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelID == "" || *testCSV == "" {
		return fmt.Errorf("-model and -test are required")
	}

	f, err := os.Open(*testCSV)
	if err != nil {
		return fmt.Errorf("open test set: %w", err)
	}
	test, err := dataset.ReadCSV(f, "holdout", nil)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("close test set: %w", cerr)
	}
	if err != nil {
		return fmt.Errorf("parse test set: %w", err)
	}
	if err := test.Validate(); err != nil {
		return err
	}

	mlc := &service.Client{BaseURL: *gatewayURL + "/ml", APIKey: *apiKey}
	resc := &service.Client{BaseURL: *gatewayURL + "/resilience", APIKey: *apiKey}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := mlc.WaitHealthy(ctx, 10*time.Second); err != nil {
		return err
	}

	// Fetch the served model once so the resilience sensor can submit it
	// inline to the evasion-impact endpoint.
	model, err := mlc.FetchModel(ctx, *modelID)
	if err != nil {
		return err
	}
	blob, err := ml.MarshalModel(model)
	if err != nil {
		return err
	}
	wireTest := service.FromTable(test)

	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	manager := sensor.NewManager(&dashboard.Client{BaseURL: *dashboardURL})
	manager.UseTelemetry(reg)
	if err := manager.Register(&sensor.Sensor{
		Name:     *modelID + "-accuracy",
		Property: sensor.PropPerformance,
		Interval: *interval,
		Collector: sensor.CollectorFunc(func(ctx context.Context) (float64, map[string]float64, error) {
			acc, err := holdoutAccuracy(ctx, mlc, *modelID, test)
			return acc, nil, err
		}),
		Min: minAccuracy,
	}); err != nil {
		return err
	}
	if err := manager.Register(&sensor.Sensor{
		Name:     *modelID + "-evasion-resilience",
		Property: sensor.PropResilience,
		Interval: *interval,
		Collector: sensor.CollectorFunc(func(ctx context.Context) (float64, map[string]float64, error) {
			rep, err := resc.EvasionImpact(ctx, service.EvasionImpactRequest{
				Model: blob,
				Clean: wireTest,
				Eps:   *eps,
			})
			if err != nil {
				return 0, nil, err
			}
			return 1 - rep.Impact, map[string]float64{
				"impact":  rep.Impact,
				"craftUs": rep.Complexity,
			}, nil
		}),
	}); err != nil {
		return err
	}

	var servers wire.Servers
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		if _, err := servers.Listen(*metricsAddr, mux); err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		fmt.Printf("sensor metrics on http://%s/metrics\n", *metricsAddr)
	}

	if err := manager.Start(ctx); err != nil {
		return err
	}
	fmt.Printf("sensors running every %v against %s; publishing to %s (ctrl-c to stop)\n",
		*interval, *gatewayURL, *dashboardURL)
	err = servers.Wait(ctx, manager.Stop)
	fmt.Println("sensors stopped")
	return err
}
