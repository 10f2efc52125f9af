package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/service"
	"repro/internal/xai"
)

// Explainer budgets of explain_probe: KernelSHAP scores (coalitions+2) x
// background rows and LIME one row per perturbation, so both explainers
// put about 2 000 rows through the model and cost about the same.
const (
	shapSamples    = 128
	shapBackground = 16
	limeSamples    = 2048
)

// request is one HTTP call the benchmark can make, with the answers it
// accepts for it.
type request struct {
	id    int // index into a client's table of accepted response bodies
	class uint8
	path  string // below the gateway base URL
	body  []byte
	// expect computes the acceptable answers straight from the models,
	// bypassing the stack; want caches them. cluster_mixed accepts two
	// (version 1's or version 2's output), everything else exactly one.
	expect func() ([][]float64, error)
	want   [][]float64
}

// workload is a seeded set of distinct operations. An operation is one
// request, or for explain_probe the SHAP + LIME pair an AI sensor sends
// per collection.
type workload struct {
	name  string
	limit time.Duration // latency limit behind loadgen.within_limit_share
	ops   [][]*request
	reqs  []*request // every request of ops, indexed by request.id
	// promoteEvery > 0 makes every promoteEvery-th operation of client 0
	// a cluster-wide promote flipping one of clusterNames between
	// versions 1 and 2: scheduled by count, never by time (N5).
	promoteEvery int
	// model and rows describe the model work of one request, for the
	// per-layer measurements taken "at the workload's shape".
	model ml.Classifier
	rows  int
}

var workloadNames = []string{"predict_single", "predict_batch", "explain_probe", "cluster_mixed"}

// liveRows draws n flow-feature rows near the training distribution: a
// training row plus small Gaussian jitter, clamped to the scaled range.
func liveRows(rng *rand.Rand, t *dataset.Table, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		src := t.X[rng.Intn(len(t.X))]
		row := make([]float64, len(src))
		for j, v := range src {
			row[j] = math.Min(1, math.Max(0, v+0.02*rng.NormFloat64()))
		}
		rows[i] = row
	}
	return rows
}

// flatPredict lays a predict answer out as one vector: every
// probability, then every class.
func flatPredict(probs [][]float64, classes []int) []float64 {
	var out []float64
	for _, p := range probs {
		out = append(out, p...)
	}
	for _, c := range classes {
		out = append(out, float64(c))
	}
	return out
}

// directPredict is the reference a predict response is held to.
func directPredict(c ml.Classifier, rows [][]float64) []float64 {
	probs := ml.PredictProbaAll(c, rows)
	return flatPredict(probs, ml.ArgmaxAll(probs))
}

// newWorkload generates the named workload's operations from seed. nOps
// of 0 selects the workload's own count (64 or more distinct bodies).
func newWorkload(name string, seed int64, m *models, nOps int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name}
	add := func(op ...*request) {
		for _, rq := range op {
			rq.id = len(w.reqs)
			w.reqs = append(w.reqs, rq)
		}
		w.ops = append(w.ops, op)
	}
	count := func(def int) int {
		if nOps > 0 {
			return nOps
		}
		return def
	}
	// predicts adds n predict operations of rows instances each, scored by
	// any one of models (more than one where a promote may have flipped
	// the alias between versions).
	predicts := func(n, rows int, limit time.Duration, alias func(i int) string, models ...ml.Classifier) error {
		w.limit, w.model, w.rows = limit, models[0], rows
		for i := 0; i < count(n); i++ {
			instances := liveRows(rng, m.table, rows)
			body, err := json.Marshal(service.PredictRequest{ModelID: alias(i), Instances: instances})
			if err != nil {
				return err
			}
			add(&request{class: clsOp, path: "/ml/predict", body: body, expect: func() ([][]float64, error) {
				var want [][]float64
				for _, c := range models {
					want = append(want, directPredict(c, instances))
				}
				return want, nil
			}})
		}
		return nil
	}
	fixed := func(alias string) func(int) string { return func(int) string { return alias } }

	switch name {
	case "predict_single":
		return w, predicts(256, 1, 10*time.Millisecond, fixed("rf"), m.rf)
	case "predict_batch":
		return w, predicts(64, 256, 15*time.Millisecond, fixed("lgbm"), m.lgbm)
	case "cluster_mixed":
		if m.rf2 == nil {
			return nil, fmt.Errorf("cluster_mixed needs two model versions")
		}
		// 64 rows fill one micro-batch, so the runtime flushes at once
		// and one request is always scored by one version.
		w.promoteEvery = 400
		return w, predicts(96, 64, 10*time.Millisecond,
			func(i int) string { return clusterNames[i%len(clusterNames)] }, m.rf, m.rf2)
	case "explain_probe":
		w.limit, w.model, w.rows = 150*time.Millisecond, m.nn, 1
		background := liveRows(rng, m.table, shapBackground)
		for i := 0; i < count(64); i++ {
			x := liveRows(rng, m.table, 1)[0]
			class := ml.Predict(m.nn, x)
			opSeed := rng.Int63()
			shapBody, err := json.Marshal(service.SHAPRequest{Model: m.nnBlob, Instance: x, Class: class,
				Background: background, Samples: shapSamples, Seed: opSeed})
			if err != nil {
				return nil, err
			}
			limeBody, err := json.Marshal(service.LIMETabularRequest{Model: m.nnBlob, Instance: x, Class: class,
				Scale: m.scale, Samples: limeSamples, Seed: opSeed})
			if err != nil {
				return nil, err
			}
			add(
				&request{class: clsSHAP, path: "/shap/explain", body: shapBody, expect: func() ([][]float64, error) {
					attr, err := shapExplainer(m.nn, background, opSeed).Explain(x, class)
					return [][]float64{attr}, err
				}},
				&request{class: clsLIME, path: "/lime/explain/tabular", body: limeBody, expect: func() ([][]float64, error) {
					attr, err := limeExplainer(m.nn, m.scale, opSeed).Explain(x, class)
					return [][]float64{attr}, err
				}},
			)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

func shapExplainer(c ml.Classifier, background [][]float64, seed int64) *xai.KernelSHAP {
	return &xai.KernelSHAP{Model: c, Background: background, Samples: shapSamples, Seed: seed}
}

func limeExplainer(c ml.Classifier, scale []float64, seed int64) *xai.TabularLIME {
	return &xai.TabularLIME{Model: c, Scale: scale, Samples: limeSamples, Seed: seed}
}

// prepare computes the expected answers of the first n operations (all
// when n <= 0), spread over the cores: for explain_probe that is one
// direct Explain per request, the only expensive case.
func (w *workload) prepare(n int) error {
	if n <= 0 || n > len(w.ops) {
		n = len(w.ops)
	}
	var todo []*request
	for _, op := range w.ops[:n] {
		for _, rq := range op {
			if rq.want == nil {
				todo = append(todo, rq)
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(todo); i += workers {
				want, err := todo[i].expect()
				if err != nil {
					errs[k] = err
					return
				}
				todo[i].want = want
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// promoteRequest flips name to version cluster-wide through the gateway.
func promoteRequest(name string, version int) *request {
	body := fmt.Sprintf(`{"name":%q,"version":%d}`, name, version)
	return &request{id: -1, class: clsPromote, path: "/ml/cluster/promote", body: []byte(body),
		want: [][]float64{{float64(version)}}}
}

// answer is the union of the response bodies the benchmark checks.
type answer struct {
	Probs       [][]float64 `json:"probs"`
	Classes     []int       `json:"classes"`
	Attribution []float64   `json:"attribution"`
	Version     int         `json:"version"`
}

// accepts reports whether a response body decodes to one of the
// request's expected answers, bit for bit.
func (rq *request) accepts(body []byte) bool {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return false
	}
	got := append(flatPredict(a.Probs, a.Classes), a.Attribution...)
	if a.Version != 0 {
		got = append(got, float64(a.Version))
	}
	for _, want := range rq.want {
		if sameBits(got, want) {
			return true
		}
	}
	return false
}

// sameBits compares two vectors exactly; it never calls two values equal
// that differ in any bit, which == would for signed zeros.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// countingClassifier counts the rows an explainer sends to the model.
type countingClassifier struct {
	ml.Classifier
	rows int
}

func (c *countingClassifier) PredictProba(x []float64) []float64 {
	c.rows++
	return c.Classifier.PredictProba(x)
}
