// Fullstack: deploy the complete SPATIAL system on loopback — metric
// micro-services behind the API gateway, the AI dashboard, and AI sensors
// monitoring a model trained through the gateway — then put the
// explanation service under load with the JMeter-equivalent harness.
//
//	go run ./examples/fullstack
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/loadgen"
	"repro/internal/ml"
	"repro/internal/sensor"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// 1. Deploy: five micro-services + gateway + dashboard on loopback.
	sys := core.NewSystem(core.Options{HealthInterval: 250 * time.Millisecond})
	gwURL, dashURL, err := sys.DeployLocal(ctx)
	if err != nil {
		return err
	}
	defer sys.Shutdown(context.Background())
	fmt.Printf("gateway:   %s\ndashboard: %s\n\n", gwURL, dashURL)

	// 2. Train the network-activity model through the gateway.
	table, _, err := datagen.NetTraffic(datagen.NetTrafficConfig{Web: 150, Interactive: 20, Video: 25, Seed: 2})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(2))
	train, test, err := table.StratifiedSplit(rng, 0.75)
	if err != nil {
		return err
	}
	scaler, err := dataset.FitMinMax(train)
	if err != nil {
		return err
	}
	if err := scaler.Transform(train); err != nil {
		return err
	}
	if err := scaler.Transform(test); err != nil {
		return err
	}
	mlc := sys.ServiceClient("/ml", "")
	if err := mlc.WaitHealthy(ctx, 5*time.Second); err != nil {
		return err
	}
	trained, err := mlc.Train(ctx, service.TrainRequest{
		Algorithm: "nn",
		Train:     service.FromTable(train),
		Eval:      ptr(service.FromTable(test)),
		Seed:      1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("trained model %s via gateway: accuracy %.1f%%\n", trained.ModelID, trained.Metrics.Accuracy*100)

	// Retraining appends a new version under the "nn" algorithm alias in
	// the serving registry; the operator promotes it, and can roll back
	// atomically if the canary regresses.
	retrained, err := mlc.Train(ctx, service.TrainRequest{
		Algorithm: "nn",
		Train:     service.FromTable(train),
		Eval:      ptr(service.FromTable(test)),
		Seed:      7,
	})
	if err != nil {
		return err
	}
	promoted, err := mlc.Promote(ctx, service.PromoteRequest{Name: "nn", Version: retrained.Ref.Version})
	if err != nil {
		return err
	}
	if _, err := mlc.Predict(ctx, service.PredictRequest{ModelID: "nn", Instances: test.X[:2]}); err != nil {
		return err
	}
	rolled, err := mlc.Rollback(ctx, "nn")
	if err != nil {
		return err
	}
	fmt.Printf("alias nn: promoted v%d (%s...), rolled back to v%d\n",
		promoted.Version, promoted.ID[:18], rolled.Version)

	// 3. AI sensors monitor the deployed model and publish to the
	//    dashboard store.
	model, err := mlc.FetchModel(ctx, trained.ModelID)
	if err != nil {
		return err
	}
	blob, err := ml.MarshalModel(model)
	if err != nil {
		return err
	}
	resc := sys.ServiceClient("/resilience", "")
	wireTest := service.FromTable(test)
	err = sys.Sensors.Register(&sensor.Sensor{
		Name:     "nn-accuracy",
		Property: sensor.PropPerformance,
		Interval: 300 * time.Millisecond,
		Collector: sensor.CollectorFunc(func(ctx context.Context) (float64, map[string]float64, error) {
			resp, err := mlc.Predict(ctx, service.PredictRequest{ModelID: trained.ModelID, Instances: test.X})
			if err != nil {
				return 0, nil, err
			}
			correct := 0
			for i, c := range resp.Classes {
				if c == test.Y[i] {
					correct++
				}
			}
			return float64(correct) / float64(len(test.Y)), nil, nil
		}),
		Min: sensor.Float64Ptr(0.8),
	})
	if err != nil {
		return err
	}
	err = sys.Sensors.Register(&sensor.Sensor{
		Name:     "nn-evasion-resilience",
		Property: sensor.PropResilience,
		Interval: 500 * time.Millisecond,
		Collector: sensor.CollectorFunc(func(ctx context.Context) (float64, map[string]float64, error) {
			rep, err := resc.EvasionImpact(ctx, service.EvasionImpactRequest{Model: blob, Clean: wireTest, Eps: 0.1})
			if err != nil {
				return 0, nil, err
			}
			// Publish resilience = 1 - impact so higher is better.
			return 1 - rep.Impact, map[string]float64{"impact": rep.Impact, "craftUs": rep.Complexity}, nil
		}),
	})
	if err != nil {
		return err
	}
	if err := sys.Sensors.Start(ctx); err != nil {
		return err
	}
	time.Sleep(1200 * time.Millisecond) // let a few readings land

	rep, err := sys.TrustReport(nil)
	if err != nil {
		return err
	}
	fmt.Printf("\ntrust report: score %.2f, %d alert(s)\n", rep.Score, rep.Alerts)
	for prop, v := range rep.PerProperty {
		fmt.Printf("  %-12s %.3f\n", prop, v)
	}

	// Certification against an application-specific requirement scale
	// (§VIII "towards standardization").
	cert, err := core.Certify(rep, core.Requirements{
		sensor.PropPerformance: 0.85,
		sensor.PropResilience:  0.5,
	})
	if err != nil {
		return err
	}
	fmt.Printf("certification: passed=%v hash=%s...\n", cert.Passed, cert.Hash[:12])
	if _, err := sys.Dashboard.Audit().Append(audit.KindAction, "operator", cert); err != nil {
		return err
	}

	// 4. Capacity test the SHAP endpoint through the gateway.
	shapBody, err := json.Marshal(service.SHAPRequest{
		Model:      blob,
		Instance:   test.X[0],
		Class:      test.Y[0],
		Background: test.X[1:4],
		Samples:    150,
		Seed:       1,
	})
	if err != nil {
		return err
	}
	fmt.Println("\nload testing /shap/explain (8 users, 1s ramp-up, 3 iterations)...")
	res, err := loadgen.Run(ctx, loadgen.ThreadGroup{Threads: 8, RampUp: time.Second, Iterations: 3},
		&loadgen.HTTPSampler{
			Method: http.MethodPost,
			URL:    gwURL + "/shap/explain",
			Body:   shapBody,
			Header: http.Header{"Content-Type": []string{"application/json"}},
			Client: &http.Client{Timeout: time.Minute},
		})
	if err != nil {
		return err
	}
	s := res.Summarize()
	fmt.Printf("  %d samples, mean %v, p95 %v, %.1f req/s, %.0f%% errors (%d shed)\n",
		s.Count, s.Mean.Round(time.Millisecond), s.P95.Round(time.Millisecond), s.Throughput, s.ErrorRate*100, s.Shed)

	// 5. What the operator sees: gateway upstream state + dashboard data.
	// Request counts and latencies are on the gateway's /metrics.
	fmt.Println("\ngateway upstreams:")
	for _, m := range sys.Gateway.RouteMetrics() {
		for _, u := range m.Upstreams {
			fmt.Printf("  %-12s %s healthy=%t breakerOpen=%t inFlight=%d\n", m.Prefix, u.URL, u.Healthy, u.BreakerOpen, u.InFlight)
		}
	}
	store := sys.Dashboard.Store()
	fmt.Println("dashboard sensors:", store.Sensors())
	fmt.Printf("dashboard alerts:  %d\n", len(store.Alerts()))
	trail := sys.Dashboard.Audit()
	if err := trail.Verify(); err != nil {
		return err
	}
	fmt.Printf("audit trail:       %d records, chain verified\n", trail.Len())
	return nil
}

func ptr[T any](v T) *T { return &v }
