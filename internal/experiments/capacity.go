package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/loadgen"
	"repro/internal/ml"
	"repro/internal/service"
)

// LoadSeries is the measured latency behaviour of one endpoint under load:
// the summary report plus the response-times-over-active-threads series
// the paper plots in Fig. 8.
type LoadSeries struct {
	Endpoint      string                `json:"endpoint"`
	Threads       int                   `json:"threads"`
	MeanMs        float64               `json:"meanMs"`
	P95Ms         float64               `json:"p95Ms"`
	ThroughputRPS float64               `json:"throughputRps"`
	ErrorRate     float64               `json:"errorRate"`
	OverThreads   []loadgen.ThreadPoint `json:"overThreads"`
}

func toSeries(endpoint string, threads int, res *loadgen.Results) LoadSeries {
	s := res.Summarize()
	return LoadSeries{
		Endpoint:      endpoint,
		Threads:       threads,
		MeanMs:        float64(s.Mean.Microseconds()) / 1e3,
		P95Ms:         float64(s.P95.Microseconds()) / 1e3,
		ThroughputRPS: s.Throughput,
		ErrorRate:     s.ErrorRate,
		OverThreads:   res.OverActiveThreads(),
	}
}

// capacityThreads returns the fig-8b/8c thread-group geometry.
func (c Config) capacityThreads() (threads, iterations int, rampUp time.Duration) {
	if c.Quick {
		return 12, 4, 200 * time.Millisecond
	}
	// Enough iterations per thread that the thread population overlaps
	// after the ramp-up — the paper's response-times-over-active-threads
	// view needs sustained concurrency, not a one-shot volley.
	return 100, 20, 2 * time.Second
}

// fig8dConcurrency returns the fig-8d concurrency sweep.
func (c Config) fig8dConcurrency() []int {
	if c.Quick {
		return []int{2, 8}
	}
	return []int{5, 10, 15, 20, 25}
}

// deployUC2System trains the UC2 NN, deploys the full SPATIAL stack on
// loopback, and returns the system, the serialized model, and the
// standardized test table.
func deployUC2System(ctx context.Context, cfg Config) (*core.System, json.RawMessage, *service.TableJSON, error) {
	train, test, _, err := uc2Data(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	nn, err := fitByName("nn", train, cfg.seed())
	if err != nil {
		return nil, nil, nil, err
	}
	blob, err := ml.MarshalModel(nn)
	if err != nil {
		return nil, nil, nil, err
	}
	sys := core.NewSystem(core.Options{HealthInterval: 500 * time.Millisecond})
	if _, _, err := sys.DeployLocal(ctx); err != nil {
		return nil, nil, nil, err
	}
	wire := service.FromTable(test)
	return sys, blob, &wire, nil
}

// Fig8b reproduces Fig. 8(b): the impact-resilience micro-service
// (FGSM evasion impact) under ~100 concurrent requests through the
// gateway. The paper observes convergence to a stable mean (~1.6 s on
// their hardware); the reproduction checks the same saturation shape.
func Fig8b(cfg Config) (LoadSeries, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	sys, blob, wire, err := deployUC2System(ctx, cfg)
	if err != nil {
		return LoadSeries{}, err
	}
	defer sys.Shutdown(context.Background())

	body, err := json.Marshal(service.EvasionImpactRequest{Model: blob, Clean: *wire, Eps: fgsmEps})
	if err != nil {
		return LoadSeries{}, err
	}
	threads, iters, ramp := cfg.capacityThreads()
	sampler := &loadgen.HTTPSampler{
		Method: http.MethodPost,
		URL:    sys.GatewayURL() + "/resilience/impact/evasion",
		Body:   body,
		Header: http.Header{"Content-Type": []string{"application/json"}},
		Client: &http.Client{Timeout: 2 * time.Minute},
	}
	res, err := loadgen.Run(ctx, loadgen.ThreadGroup{Threads: threads, RampUp: ramp, Iterations: iters}, sampler)
	if err != nil {
		return LoadSeries{}, err
	}
	series := toSeries("resilience/impact/evasion", threads, res)
	printSeries(cfg, "Fig 8(b): impact-resilience service under concurrent load", series)
	return series, nil
}

// Fig8cResult pairs the SHAP and LIME series of Fig. 8(c).
type Fig8cResult struct {
	SHAP LoadSeries `json:"shap"`
	LIME LoadSeries `json:"lime"`
}

// Fig8c reproduces Fig. 8(c): SHAP and LIME tabular-explanation latency
// under ~100 concurrent requests (paper: 228.6 ms and 243.4 ms mean).
func Fig8c(cfg Config) (Fig8cResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	sys, blob, wire, err := deployUC2System(ctx, cfg)
	if err != nil {
		return Fig8cResult{}, err
	}
	defer sys.Shutdown(context.Background())

	shapSamples := 300
	limeSamples := 1200
	if cfg.Quick {
		shapSamples, limeSamples = 100, 300
	}
	shapBody, err := json.Marshal(service.SHAPRequest{
		Model:      blob,
		Instance:   wire.X[0],
		Class:      wire.Y[0],
		Background: wire.X[1:5],
		Samples:    shapSamples,
		Seed:       cfg.seed(),
	})
	if err != nil {
		return Fig8cResult{}, err
	}
	scale := make([]float64, len(wire.X[0]))
	for i := range scale {
		scale[i] = 1
	}
	limeBody, err := json.Marshal(service.LIMETabularRequest{
		Model:    blob,
		Instance: wire.X[0],
		Class:    wire.Y[0],
		Scale:    scale,
		Samples:  limeSamples,
		Seed:     cfg.seed(),
	})
	if err != nil {
		return Fig8cResult{}, err
	}

	threads, iters, ramp := cfg.capacityThreads()
	run := func(path string, body []byte) (LoadSeries, error) {
		sampler := &loadgen.HTTPSampler{
			Method: http.MethodPost,
			URL:    sys.GatewayURL() + path,
			Body:   body,
			Header: http.Header{"Content-Type": []string{"application/json"}},
			Client: &http.Client{Timeout: 2 * time.Minute},
		}
		res, err := loadgen.Run(ctx, loadgen.ThreadGroup{Threads: threads, RampUp: ramp, Iterations: iters}, sampler)
		if err != nil {
			return LoadSeries{}, err
		}
		return toSeries(path, threads, res), nil
	}
	var out Fig8cResult
	if out.SHAP, err = run("/shap/explain", shapBody); err != nil {
		return Fig8cResult{}, fmt.Errorf("shap load: %w", err)
	}
	if out.LIME, err = run("/lime/explain/tabular", limeBody); err != nil {
		return Fig8cResult{}, fmt.Errorf("lime load: %w", err)
	}
	printSeries(cfg, "Fig 8(c): SHAP under concurrent load (paper ~228.6ms)", out.SHAP)
	printSeries(cfg, "Fig 8(c): LIME under concurrent load (paper ~243.4ms)", out.LIME)
	return out, nil
}

// Fig8dResult is the image-LIME concurrency sweep of Fig. 8(d).
type Fig8dResult struct {
	Points []LoadSeries `json:"points"`
}

// Fig8d reproduces Fig. 8(d): image-LIME (a heavy XAI workload) under an
// increasing number of concurrent users with a 1 s ramp-up. The paper's
// observation: response time grows steadily with concurrency and exceeds
// one second, making image XAI unsuitable for tight monitoring loops.
func Fig8d(cfg Config) (Fig8dResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()

	size := 24
	limeSamples := 400
	iters := 3
	if cfg.Quick {
		size, limeSamples, iters = 16, 120, 3
	}
	shapes, err := datagen.Shapes(datagen.ShapesConfig{Samples: 360, Size: size, Seed: cfg.seed()})
	if err != nil {
		return Fig8dResult{}, err
	}
	model := ml.NewMLP(ml.MLPConfig{Hidden: []int{64, 32}, LearningRate: 0.05, Momentum: 0.9, Epochs: 25, BatchSize: 32, Seed: cfg.seed()})
	if err := model.Fit(shapes); err != nil {
		return Fig8dResult{}, err
	}
	blob, err := ml.MarshalModel(model)
	if err != nil {
		return Fig8dResult{}, err
	}

	sys := core.NewSystem(core.Options{HealthInterval: 500 * time.Millisecond})
	if _, _, err := sys.DeployLocal(ctx); err != nil {
		return Fig8dResult{}, err
	}
	defer sys.Shutdown(context.Background())

	body, err := json.Marshal(service.LIMEImageRequest{
		Model:   blob,
		Image:   shapes.X[0],
		Class:   shapes.Y[0],
		W:       size,
		H:       size,
		Patch:   4,
		Samples: limeSamples,
		Seed:    cfg.seed(),
	})
	if err != nil {
		return Fig8dResult{}, err
	}

	sampler := &loadgen.HTTPSampler{
		Method: http.MethodPost,
		URL:    sys.GatewayURL() + "/lime/explain/image",
		Body:   body,
		Header: http.Header{"Content-Type": []string{"application/json"}},
		Client: &http.Client{Timeout: 5 * time.Minute},
	}
	// One discarded request first: it takes the model-cache miss and the
	// first dials, which would otherwise land in the first point's mean
	// (six requests in quick mode) and can make 2 users read slower than
	// 8. The sweep then measures response time against users on a warm
	// system.
	if err := sampler.Sample(ctx); err != nil {
		return Fig8dResult{}, err
	}
	var out Fig8dResult
	for _, threads := range cfg.fig8dConcurrency() {
		res, err := loadgen.Run(ctx, loadgen.ThreadGroup{Threads: threads, RampUp: time.Second, Iterations: iters}, sampler)
		if err != nil {
			return Fig8dResult{}, err
		}
		out.Points = append(out.Points, toSeries("lime/explain/image", threads, res))
	}

	w := cfg.out()
	fmt.Fprintf(w, "\nFig 8(d): image-LIME response time vs concurrent users (1s ramp-up)\n")
	fmt.Fprintf(w, "%8s %10s %10s %12s %8s\n", "users", "mean", "p95", "throughput", "errors")
	for _, p := range out.Points {
		fmt.Fprintf(w, "%8d %8.1fms %8.1fms %9.2f/s %7.1f%%\n",
			p.Threads, p.MeanMs, p.P95Ms, p.ThroughputRPS, p.ErrorRate*100)
	}
	return out, nil
}

func printSeries(cfg Config, title string, s LoadSeries) {
	w := cfg.out()
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "threads=%d mean=%.1fms p95=%.1fms throughput=%.2f/s errors=%.1f%%\n",
		s.Threads, s.MeanMs, s.P95Ms, s.ThroughputRPS, s.ErrorRate*100)
	fmt.Fprintf(w, "%-14s %12s %8s\n", "activeThreads", "meanLatency", "samples")
	for _, p := range s.OverThreads {
		fmt.Fprintf(w, "%-14d %10.1fms %8d\n", p.ActiveThreads, float64(p.MeanLatency.Microseconds())/1e3, p.Count)
	}
}
