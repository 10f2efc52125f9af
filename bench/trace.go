package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/ml"
	"repro/internal/service"
)

// The traced run is a separate invocation (-trace 1) and never feeds the
// gated numbers. It times calls into each layer's public API from the
// outside; nothing inside the program is instrumented for it. It has
// three parts:
//
//   - a ladder at one caller (this file): the same request bodies are
//     sent in at each successive layer boundary, from the bare kernel
//     out to the gateway, so a layer's self time is its rung minus the
//     rung it wraps;
//   - per-layer measurements of single calls (layers.go);
//   - windows under the two-client load (window.go), which join the
//     gateway's and the services' own /traces spans to the client's
//     samples by trace id and read the telemetry registries.
//
// Every layer is measured on every run, whichever workload was asked
// for: a layer the workload touches is measured with the workload's own
// bodies and under its own load, the others at a small reference
// workload that does touch them, so that every per-layer metric is a
// measurement on every run.

// span is one timed call, recorded in memory and written out at exit.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"` // the rung that wraps this one
	Request int     `json:"request"`          // which of the ladder's bodies
	StartUS float64 `json:"startUs"`          // since the recorder started
	EndUS   float64 `json:"endUs"`
}

type recorder struct {
	epoch time.Time
	spans []span
}

// rung is one step of a ladder: a call into one layer with body i.
type rung struct {
	name   string
	parent string
	call   func(i int) error
}

// climb times every rung n times with a single caller and returns each
// rung's median. The rungs take turns, request by request, so that a
// drift in the machine's speed during the climb lands on every rung
// alike and cancels in the differences the self times are made of.
func (r *recorder) climb(rungs []rung, n int) (map[string]time.Duration, error) {
	durs := make([][]float64, len(rungs))
	for i := 0; i < n; i++ {
		for k, rg := range rungs {
			start := time.Now()
			err := rg.call(i)
			end := time.Now()
			if err != nil {
				return nil, fmt.Errorf("ladder rung %s: %w", rg.name, err)
			}
			r.spans = append(r.spans, span{Name: rg.name, Parent: rg.parent, Request: i,
				StartUS: us(start.Sub(r.epoch)), EndUS: us(end.Sub(r.epoch))})
			durs[k] = append(durs[k], float64(end.Sub(start)))
		}
	}
	p50 := map[string]time.Duration{}
	for k, rg := range rungs {
		p50[rg.name] = time.Duration(median(durs[k]))
	}
	return p50, nil
}

func (r *recorder) write(dir string, o options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{o.workload, o.seed, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+o.workload+".json"), raw, 0o644)
}

// post sends body and requires a 200; the ladder and the single-call
// measurements use it where the windows use client.do.
func post(hc *http.Client, url string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", apiKey)
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return err
}

// serveRecorded calls a handler in process, with no socket.
func serveRecorded(h http.Handler, path string, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}

// Rung names shared by the ladders and the metrics derived from them.
const (
	rungKernel  = "ml.PredictProbaAll"
	rungRuntime = "serving.Runtime.Predict"
	rungService = "service.ServeHTTP"
	rungDirect  = "service over loopback"
	rungGateway = "gateway over loopback"

	rungDecode  = "ml.UnmarshalModel"
	rungExplain = "xai.Explain"

	rungReplica      = "cluster.Replica.Predict"
	rungClusterLocal = "cluster.Cluster.Predict (in-process replicas)"
	rungClusterHTTP  = "cluster.Cluster.Predict (HTTPBackend replicas)"
	rungFront        = "cluster.Handler.ServeHTTP"
)

// predictBodies decodes a predict workload's bodies back into rows, for
// the rungs below the HTTP surface.
func predictBodies(w *workload) ([]service.PredictRequest, error) {
	reqs := make([]service.PredictRequest, len(w.ops))
	for i, op := range w.ops {
		if err := json.Unmarshal(op[0].body, &reqs[i]); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// predictLadder: kernel -> Runtime.Predict -> MLService on a recorder ->
// the service over loopback -> through the gateway.
func predictLadder(st *stack, w *workload, hc *http.Client) ([]rung, error) {
	reqs, err := predictBodies(w)
	if err != nil {
		return nil, err
	}
	direct := st.upstream("/ml")
	at := func(i int) int { return i % len(reqs) }
	return []rung{
		{rungKernel, rungRuntime, func(i int) error {
			ml.PredictProbaAll(w.model, reqs[at(i)].Instances)
			return nil
		}},
		{rungRuntime, rungService, func(i int) error {
			_, _, err := st.sys.ML.Runtime().Predict(context.Background(), reqs[at(i)].ModelID, reqs[at(i)].Instances)
			return err
		}},
		{rungService, rungDirect, func(i int) error {
			return serveRecorded(st.sys.ML, "/predict", w.ops[at(i)][0].body)
		}},
		{rungDirect, rungGateway, func(i int) error {
			return post(hc, direct+"/predict", w.ops[at(i)][0].body)
		}},
		{rungGateway, "", func(i int) error {
			return post(hc, st.base+"/ml/predict", w.ops[at(i)][0].body)
		}},
	}, nil
}

// explainLadder: one operation is SHAP then LIME. Model decode and the
// explainers are siblings inside the handlers, then the handlers on a
// recorder -> the two services over loopback -> through the gateway.
func explainLadder(st *stack, w *workload, m *models, hc *http.Client) ([]rung, error) {
	type probe struct {
		shap service.SHAPRequest
		lime service.LIMETabularRequest
	}
	probes := make([]probe, len(w.ops))
	for i, op := range w.ops {
		if err := json.Unmarshal(op[0].body, &probes[i].shap); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(op[1].body, &probes[i].lime); err != nil {
			return nil, err
		}
	}
	shapURL, limeURL := st.upstream("/shap"), st.upstream("/lime")
	at := func(i int) int { return i % len(probes) }
	// pair sends an operation's SHAP body one way and its LIME body another.
	pair := func(i int, shap, lime func(body []byte) error) error {
		op := w.ops[at(i)]
		if err := shap(op[0].body); err != nil {
			return err
		}
		return lime(op[1].body)
	}
	return []rung{
		{rungDecode, rungService, func(i int) error {
			// Each of the two requests carries and decodes the model.
			for k := 0; k < 2; k++ {
				if _, err := ml.UnmarshalModel(probes[at(i)].shap.Model); err != nil {
					return err
				}
			}
			return nil
		}},
		{rungExplain, rungService, func(i int) error {
			p := probes[at(i)]
			if _, err := shapExplainer(m.nn, p.shap.Background, p.shap.Seed).Explain(p.shap.Instance, p.shap.Class); err != nil {
				return err
			}
			_, err := limeExplainer(m.nn, p.lime.Scale, p.lime.Seed).Explain(p.lime.Instance, p.lime.Class)
			return err
		}},
		{rungService, rungDirect, func(i int) error {
			return pair(i,
				func(b []byte) error { return serveRecorded(st.sys.SHAP, "/explain", b) },
				func(b []byte) error { return serveRecorded(st.sys.LIME, "/explain/tabular", b) })
		}},
		{rungDirect, rungGateway, func(i int) error {
			return pair(i,
				func(b []byte) error { return post(hc, shapURL+"/explain", b) },
				func(b []byte) error { return post(hc, limeURL+"/explain/tabular", b) })
		}},
		{rungGateway, "", func(i int) error {
			return pair(i,
				func(b []byte) error { return post(hc, st.base+"/shap/explain", b) },
				func(b []byte) error { return post(hc, st.base+"/lime/explain/tabular", b) })
		}},
	}, nil
}

// clusterLadder: kernel -> one replica -> Cluster.Predict over
// in-process replicas -> the same over HTTPBackend replicas ->
// cluster.Handler on a recorder -> over loopback -> through the gateway.
func clusterLadder(st *stack, local *clusterTier, w *workload, hc *http.Client) ([]rung, error) {
	reqs, err := predictBodies(w)
	if err != nil {
		return nil, err
	}
	at := func(i int) int { return i % len(reqs) }
	ctx := context.Background()
	front := st.tier.cluster.Handler()
	return []rung{
		{rungKernel, rungReplica, func(i int) error {
			ml.PredictProbaAll(w.model, reqs[at(i)].Instances)
			return nil
		}},
		{rungReplica, rungClusterLocal, func(i int) error {
			_, _, err := local.replicas[0].Predict(ctx, reqs[at(i)].ModelID, reqs[at(i)].Instances)
			return err
		}},
		{rungClusterLocal, rungClusterHTTP, func(i int) error {
			_, _, err := local.cluster.Predict(ctx, reqs[at(i)].ModelID, reqs[at(i)].Instances)
			return err
		}},
		{rungClusterHTTP, rungFront, func(i int) error {
			_, _, err := st.tier.cluster.Predict(ctx, reqs[at(i)].ModelID, reqs[at(i)].Instances)
			return err
		}},
		{rungFront, rungDirect, func(i int) error {
			return serveRecorded(front, "/predict", w.ops[at(i)][0].body)
		}},
		{rungDirect, rungGateway, func(i int) error {
			return post(hc, st.tier.coordURL+"/predict", w.ops[at(i)][0].body)
		}},
		{rungGateway, "", func(i int) error {
			return post(hc, st.base+"/ml/predict", w.ops[at(i)][0].body)
		}},
	}, nil
}

// selfTime is a rung's median minus the medians of the rungs it wraps.
func selfTime(p50 map[string]time.Duration, outer string, inner ...string) time.Duration {
	d := p50[outer]
	for _, name := range inner {
		d -= p50[name]
	}
	return d
}

// reconcile is the ladder's closing check: the in-process rung, plus
// two independently measured loopback hops, plus the gateway's self
// time, over the one-caller median through the gateway. Near 1 means
// the self times account for the end-to-end figure.
func reconcile(p50 map[string]time.Duration, inProcess string, hop time.Duration) (gatewaySelf time.Duration, share float64) {
	gatewaySelf = p50[rungGateway] - p50[rungDirect] - hop
	return gatewaySelf, float64(p50[inProcess]+2*hop+gatewaySelf) / float64(p50[rungGateway])
}

// Reference workloads: how many distinct operations a workload gets when
// it is not the one asked for, and how often it promotes.
var referenceOps = map[string]int{"predict_single": 32, "predict_batch": 8, "explain_probe": 4, "cluster_mixed": 12}

const referencePromoteEvery = 40

// fixtures is everything a traced run stands up once.
type fixtures struct {
	m         *models
	ws        map[string]*workload // every workload; all but the asked-for one at reference size
	local     *stack               // core.System over loopback
	tier      *stack               // gateway -> cluster.Handler -> HTTP replicas
	inProcess *clusterTier         // the same cluster over in-process replicas
	hc        *http.Client
}

func (f *fixtures) stackOf(w *workload) *stack {
	if w.name == "cluster_mixed" {
		return f.tier
	}
	return f.local
}

// climbLadders climbs all three ladders, derives the self-time metrics
// and closes the asked-for workload's ladder with trace.reconcile_share.
func climbLadders(out map[string]float64, f *fixtures, o options, stderr io.Writer) error {
	hop := time.Duration(out["net.hop_us"] * float64(time.Microsecond))
	// The predict ladder runs on the asked-for workload when that is a
	// local predict workload, else on predict_single.
	predictW := f.ws["predict_single"]
	if o.workload == "predict_batch" {
		predictW = f.ws[o.workload]
	}
	rec := &recorder{epoch: time.Now()}
	climb := func(w *workload, rungs []rung, err error, n int) (map[string]time.Duration, error) {
		if err != nil {
			return nil, err
		}
		p50, err := rec.climb(rungs, n)
		fmt.Fprintf(stderr, "bench: ladder on %s: %v\n", w.name, p50)
		return p50, err
	}
	closeWith := func(w *workload, p50 map[string]time.Duration, inProcess string, hops time.Duration) {
		if w.name == o.workload {
			gwSelf, share := reconcile(p50, inProcess, hops)
			out["gateway.self_us"], out["trace.reconcile_share"] = us(gwSelf), share
		}
	}

	rungs, err := predictLadder(f.local, predictW, f.hc)
	p50, err := climb(predictW, rungs, err, 120)
	if err != nil {
		return err
	}
	out["serving.runtime_self_us"] = us(selfTime(p50, rungRuntime, rungKernel))
	out["service.predict_self_us"] = us(selfTime(p50, rungService, rungRuntime))
	closeWith(predictW, p50, rungService, hop)

	w := f.ws["explain_probe"]
	rungs, err = explainLadder(f.local, w, f.m, f.hc)
	if p50, err = climb(w, rungs, err, 8); err != nil {
		return err
	}
	out["service.explain_self_ms"] = ms(selfTime(p50, rungService, rungDecode, rungExplain))
	closeWith(w, p50, rungService, 2*hop) // two requests per operation

	w = f.ws["cluster_mixed"]
	rungs, err = clusterLadder(f.tier, f.inProcess, w, f.hc)
	if p50, err = climb(w, rungs, err, 120); err != nil {
		return err
	}
	out["cluster.predict_local_us"] = us(p50[rungClusterLocal])
	out["cluster.predict_http_us"] = us(p50[rungClusterHTTP])
	out["cluster.hop_self_us"] = us(selfTime(p50, rungClusterHTTP, rungClusterLocal))
	out["cluster.front_self_us"] = us(selfTime(p50, rungFront, rungClusterHTTP))
	closeWith(w, p50, rungFront, hop)

	return rec.write(o.out, o)
}

// loadWindows drives the asked-for workload untraced then traced, then a
// short traced window of each reference workload for the layers the
// asked-for one never reaches. A metric keeps the first value it gets.
func loadWindows(out map[string]float64, f *fixtures, o options) (attempted, failed int, err error) {
	main := f.ws[o.workload]
	budget := time.Duration(o.seconds) * time.Second
	plain, err := drive(f.stackOf(main).base, main, o.warm/2, budget*3/10, nil)
	if err != nil {
		return 0, 0, err
	}
	plainWin := reduce(plain, main.limit)
	attempted, failed = plainWin.attempted, plainWin.failed
	order := []string{o.workload}
	for _, name := range []string{"predict_single", "explain_probe", "cluster_mixed"} {
		if name != o.workload {
			order = append(order, name)
		}
	}
	for _, name := range order {
		w, length := f.ws[name], max(budget/20, time.Second)
		if w == main {
			length = budget * 4 / 10
		}
		win, layer, err := tracedWindow(f.stackOf(w), w, o.warm/2, length)
		if err != nil {
			return 0, 0, err
		}
		attempted += win.attempted
		failed += win.failed
		if w == main {
			layer["trace.overhead_share"] = 1 - quiet(win.sliceRPS, true)/quiet(plainWin.sliceRPS, true)
		}
		for k, v := range layer {
			if _, have := out[k]; !have {
				out[k] = v
			}
		}
	}
	return attempted, failed, nil
}

// tracedRun produces every per-layer metric for o.workload.
func tracedRun(o options, stderr io.Writer) (res result, err error) {
	f := &fixtures{ws: map[string]*workload{}}
	if f.m, err = trainModels(o.scale, true); err != nil {
		return result{}, err
	}
	for _, name := range workloadNames {
		n := referenceOps[name]
		if name == o.workload {
			n = 0
		}
		w, err := newWorkload(name, o.seed, f.m, n)
		if err != nil {
			return result{}, err
		}
		if name != o.workload && w.promoteEvery > 0 {
			w.promoteEvery = referencePromoteEvery
		}
		if err := w.prepare(0); err != nil {
			return result{}, err
		}
		f.ws[name] = w
	}
	if f.local, err = deployLocal(f.m); err != nil {
		return result{}, err
	}
	defer func() { err = errors.Join(err, f.local.close()) }()
	if f.tier, err = deployCluster(f.m); err != nil {
		return result{}, err
	}
	defer func() { err = errors.Join(err, f.tier.close()) }()
	if f.inProcess, err = newClusterTier(f.m, false); err != nil {
		return result{}, err
	}
	defer func() { err = errors.Join(err, f.inProcess.close()) }()
	f.hc = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer f.hc.CloseIdleConnections()

	// Single calls first: the ladders need net.hop_us.
	out := map[string]float64{}
	if err := layerMetrics(out, f, f.ws[o.workload]); err != nil {
		return result{}, err
	}
	if err := climbLadders(out, f, o, stderr); err != nil {
		return result{}, err
	}
	res.Attempted, res.Failed, err = loadWindows(out, f, o)
	if err != nil {
		return result{}, err
	}
	res.Correct = res.Failed == 0

	res.Metrics = map[string]metric{}
	for _, name := range sortedKeys(out) {
		unit, ok := perLayerUnits[name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s has no unit", name)
		}
		res.Metrics[name] = metric{Value: out[name], Unit: unit}
		fmt.Fprintf(stderr, "bench: %-34s %14.4f %s\n", name, out[name], unit)
	}
	for name := range perLayerUnits {
		if _, ok := res.Metrics[name]; !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", name)
		}
	}
	return res, nil
}
