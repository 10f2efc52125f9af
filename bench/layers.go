package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/mat"
	"repro/internal/ml"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// perLayerUnits names every per-layer metric of the traced run, layer by
// layer in the order a request meets them; BENCHMARK.json carries the
// same names (a test holds the two together). README.md says which
// end-to-end metric each one should move, on which workload.
var perLayerUnits = map[string]string{
	"loadgen.latency_p99_ms":      "ms",
	"loadgen.within_limit_share":  "share",
	"loadgen.slice_spread":        "share",
	"loadgen.sampler_overhead_us": "us",
	"loadgen.shap_p50_ms":         "ms",
	"loadgen.lime_p50_ms":         "ms",
	"loadgen.promote_p50_ms":      "ms",

	"net.hop_us": "us",

	"gateway.self_us":       "us",
	"gateway.noop_proxy_us": "us",
	"gateway.span_p50_ms":   "ms",

	"service.predict_self_us": "us",
	"service.json_decode_us":  "us",
	"service.json_encode_us":  "us",
	"service.explain_self_ms": "ms",
	"service.span_p50_ms":     "ms",

	"serving.runtime_self_us":      "us",
	"serving.batch_size_mean":      "rows",
	"serving.batch_latency_p50_ms": "ms",
	"serving.shed_share":           "share",
	"serving.cold_loads":           "count",
	"serving.resolve_ns":           "ns",
	"serving.cold_load_ms":         "ms",

	"ml.predict_us":         "us",
	"ml.predict_ns_per_row": "ns",
	"ml.unmarshal_model_ms": "ms",
	"ml.marshal_model_ms":   "ms",
	"ml.model_bytes":        "B",
	"ml.fit_s":              "s",

	"mat.mulvec_ns":    "ns",
	"mat.ridge_wls_us": "us",

	"xai.shap_explain_ms":        "ms",
	"xai.lime_explain_ms":        "ms",
	"xai.model_rows_per_explain": "rows",

	"cluster.ring_owner_ns":    "ns",
	"cluster.predict_local_us": "us",
	"cluster.predict_http_us":  "us",
	"cluster.hop_self_us":      "us",
	"cluster.front_self_us":    "us",
	"cluster.promote_all_ms":   "ms",
	"cluster.reroute_share":    "share",
	"cluster.owner_skew":       "share",

	"telemetry.middleware_us":        "us",
	"telemetry.histogram_observe_ns": "ns",
	"telemetry.counter_inc_ns":       "ns",
	"telemetry.tracer_record_ns":     "ns",

	"trace.reconcile_share": "share",
	"trace.overhead_share":  "share",
}

// perCall runs fn n times back to back and returns the mean time of one
// call in nanoseconds: the measure for calls too short to time singly.
func perCall(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// medianCall times fn n times and returns the median call.
func medianCall(n int, fn func(i int) error) (time.Duration, error) {
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		durs = append(durs, float64(time.Since(start)))
	}
	return time.Duration(median(durs)), nil
}

var noop = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	// The hop measurements want the cost of the round trip alone; a
	// failed write shows up as a failed request on the client side.
	_, _ = io.WriteString(w, "{}")
})

// layerMetrics measures single calls into each layer, at the shape of
// workload w where the layer's cost depends on the request.
func layerMetrics(out map[string]float64, f *fixtures, w *workload) error {
	if err := hopMetrics(out, f.hc); err != nil {
		return err
	}
	if err := codecMetrics(out, w); err != nil {
		return err
	}
	if err := modelMetrics(out, f.m, w, f.local); err != nil {
		return err
	}
	if err := explainMetrics(out, f.m); err != nil {
		return err
	}
	telemetryMetrics(out)

	ring := cluster.NewRing([]string{"replica-0", "replica-1", "replica-2"}, 0)
	out["cluster.ring_owner_ns"] = perCall(500_000, func(i int) { ring.Owner(clusterNames[i%len(clusterNames)]) })
	promote, err := medianCall(30, func(i int) error {
		return f.tier.tier.cluster.PromoteAll(clusterNames[0], 2-i%2)
	})
	out["cluster.promote_all_ms"] = ms(promote)
	return err
}

// hopMetrics: what a loopback round trip, the gateway in front of it and
// the program's own load generator cost when the handler does nothing.
func hopMetrics(out map[string]float64, hc *http.Client) (err error) {
	var srv servers
	defer func() { err = errors.Join(err, srv.shutdown()) }()
	noopURL, err := srv.serve(noop)
	if err != nil {
		return err
	}
	gw := newGateway()
	if err := gw.AddRoute("/noop", gateway.RoundRobin, noopURL); err != nil {
		return err
	}
	gwURL, err := srv.serve(gw)
	if err != nil {
		return err
	}
	// The three take turns in short rounds, so a drift in the machine's
	// speed lands on all of them alike: the generator's overhead is a
	// microsecond or so on a 20 us round trip.
	const rounds, perRound = 10, 40
	body := []byte(`{}`)
	sampler := &loadgen.HTTPSampler{Method: http.MethodPost, URL: noopURL, Body: body, Client: hc}
	var hop, proxied, sampled []float64
	timed := func(into *[]float64, url string) error {
		start := time.Now()
		err := post(hc, url, body)
		*into = append(*into, float64(time.Since(start)))
		return err
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			if err := timed(&hop, noopURL); err != nil {
				return err
			}
			if err := timed(&proxied, gwURL+"/noop"); err != nil {
				return err
			}
		}
		res, err := loadgen.Run(context.Background(), loadgen.ThreadGroup{Threads: 1, Iterations: perRound}, sampler)
		if err != nil {
			return err
		}
		for _, s := range res.Samples {
			sampled = append(sampled, float64(s.Latency))
		}
	}
	out["net.hop_us"] = median(hop) / 1e3
	out["gateway.noop_proxy_us"] = median(proxied) / 1e3
	out["loadgen.sampler_overhead_us"] = (median(sampled) - median(hop)) / 1e3
	return nil
}

// codecMetrics: the service's JSON decode of w's request body and encode
// of its response, with the decoder settings the services use.
func codecMetrics(out map[string]float64, w *workload) error {
	rq := w.ops[0][0]
	var reqV, respV any
	switch rq.class {
	case clsSHAP:
		reqV, respV = &service.SHAPRequest{}, service.ExplainResponse{Attribution: rq.want[0]}
	default:
		var pr service.PredictRequest
		if err := json.Unmarshal(rq.body, &pr); err != nil {
			return err
		}
		probs := ml.PredictProbaAll(w.model, pr.Instances)
		reqV, respV = &service.PredictRequest{}, service.PredictResponse{Classes: ml.ArgmaxAll(probs), Probs: probs}
	}
	decode, err := medianCall(200, func(int) error {
		dec := json.NewDecoder(bytes.NewReader(rq.body))
		dec.DisallowUnknownFields()
		return dec.Decode(reqV)
	})
	if err != nil {
		return err
	}
	encode, err := medianCall(200, func(int) error { return json.NewEncoder(io.Discard).Encode(respV) })
	out["service.json_decode_us"], out["service.json_encode_us"] = us(decode), us(encode)
	return err
}

// modelMetrics: the kernel at w's shape, the model's serialized form,
// and the registry paths a request or a promote can take.
func modelMetrics(out map[string]float64, m *models, w *workload, local *stack) error {
	rng := rand.New(rand.NewSource(trainSeed))
	batches := make([][][]float64, 64)
	for i := range batches {
		batches[i] = liveRows(rng, m.table, w.rows)
	}
	predict, err := medianCall(400, func(i int) error {
		ml.PredictProbaAll(w.model, batches[i%len(batches)])
		return nil
	})
	if err != nil {
		return err
	}
	out["ml.predict_us"] = us(predict)
	out["ml.predict_ns_per_row"] = float64(predict) / float64(w.rows)
	out["ml.fit_s"] = m.fit.Seconds()

	blob, err := ml.MarshalModel(w.model)
	if err != nil {
		return err
	}
	out["ml.model_bytes"] = float64(len(blob))
	marshal, err := medianCall(10, func(int) error {
		_, err := ml.MarshalModel(w.model)
		return err
	})
	if err != nil {
		return err
	}
	unmarshal, err := medianCall(10, func(int) error {
		_, err := ml.UnmarshalModel(blob)
		return err
	})
	if err != nil {
		return err
	}
	out["ml.marshal_model_ms"], out["ml.unmarshal_model_ms"] = ms(marshal), ms(unmarshal)

	reg := local.sys.ML.Runtime().Registry()
	out["serving.resolve_ns"] = perCall(500_000, func(int) { _, err = reg.Resolve("rf") })
	if err != nil {
		return err
	}
	// A registry with room for one of two models: every other lookup
	// evicts and deserializes, which is what a promote to a version that
	// has gone cold costs its first request.
	other := m.lgbm
	if w.model == m.lgbm {
		other = m.rf
	}
	otherBlob, err := ml.MarshalModel(other)
	if err != nil {
		return err
	}
	small := serving.NewRegistry(int64(max(len(blob), len(otherBlob))) + 1)
	for name, b := range map[string][]byte{"a": blob, "b": otherBlob} {
		if _, err := small.RegisterBytes(name, "bench", b); err != nil {
			return err
		}
	}
	// Only the loads of w's own model are timed; the other model's load
	// in between is what makes each of them cold.
	var coldLoads []float64
	for i := 0; i < 12; i++ {
		if _, err := small.Model("b"); err != nil {
			return err
		}
		start := time.Now()
		if _, err := small.Model("a"); err != nil {
			return err
		}
		coldLoads = append(coldLoads, ms(time.Since(start)))
	}
	out["serving.cold_load_ms"] = median(coldLoads)
	return nil
}

// explainMetrics: one KernelSHAP and one LIME explanation of the nn at
// explain_probe's budgets, the linear algebra under them, and the exact
// number of rows they put through the model.
func explainMetrics(out map[string]float64, m *models) error {
	rng := rand.New(rand.NewSource(trainSeed))
	background := liveRows(rng, m.table, shapBackground)
	xs := liveRows(rng, m.table, 8)
	shap, err := medianCall(len(xs), func(i int) error {
		_, err := shapExplainer(m.nn, background, int64(i)).Explain(xs[i], 0)
		return err
	})
	if err != nil {
		return err
	}
	lime, err := medianCall(len(xs), func(i int) error {
		_, err := limeExplainer(m.nn, m.scale, int64(i)).Explain(xs[i], 0)
		return err
	})
	if err != nil {
		return err
	}
	counted := &countingClassifier{Classifier: m.nn}
	if _, err := shapExplainer(counted, background, 1).Explain(xs[0], 0); err != nil {
		return err
	}
	if _, err := limeExplainer(counted, m.scale, 1).Explain(xs[0], 0); err != nil {
		return err
	}
	out["xai.shap_explain_ms"], out["xai.lime_explain_ms"] = ms(shap), ms(lime)
	out["xai.model_rows_per_explain"] = float64(counted.rows)

	// The nn's first layer is 128 x 21; LIME solves a 2 048 x 22 ridge
	// regression (21 features and an intercept).
	d := m.table.NumFeatures()
	first := mat.NewDense(128, d)
	x, dst := xs[0], make([]float64, 128)
	out["mat.mulvec_ns"] = perCall(200_000, func(int) { first.MulVec(x, dst) })
	design := mat.NewDense(limeSamples, d+1)
	y, wts := make([]float64, limeSamples), make([]float64, limeSamples)
	for i := 0; i < limeSamples; i++ {
		row := design.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		y[i], wts[i] = rng.Float64(), rng.Float64()
	}
	ridge, err := medianCall(20, func(int) error {
		_, err := mat.RidgeWLS(design, y, wts, 1e-3)
		return err
	})
	out["mat.ridge_wls_us"] = us(ridge)
	return err
}

// telemetryMetrics: what the instrumentation every request passes three
// times (gateway, service, serving runtime) costs by itself.
func telemetryMetrics(out map[string]float64) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(512)
	wrapped := telemetry.NewMiddleware(telemetry.MiddlewareConfig{Registry: reg, Tracer: tracer, Service: "bench",
		Route: func(*http.Request) string { return "/noop" }})(noop)
	req := httptest.NewRequest(http.MethodPost, "/noop", nil)
	const n = 50_000
	bare := perCall(n, func(int) { noop.ServeHTTP(httptest.NewRecorder(), req) })
	with := perCall(n, func(int) { wrapped.ServeHTTP(httptest.NewRecorder(), req) })
	out["telemetry.middleware_us"] = (with - bare) / 1e3

	hist := reg.Histogram("bench_seconds", "Benchmark probe.", nil).With()
	counter := reg.Counter("bench_total", "Benchmark probe.").With()
	sp := telemetry.Span{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID(), Service: "bench", Name: "probe"}
	out["telemetry.histogram_observe_ns"] = perCall(2_000_000, func(i int) { hist.Observe(float64(i%100) * 1e-4) })
	out["telemetry.counter_inc_ns"] = perCall(2_000_000, func(int) { counter.Inc() })
	out["telemetry.tracer_record_ns"] = perCall(2_000_000, func(int) { tracer.Record(sp) })
}
