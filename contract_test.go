package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/wire"
)

// The HTTP contract of the eight services, cluster.Handler and
// Replica.Handler, pinned as data: every route is driven with malformed
// JSON, an unknown field and its route-specific failures, and the status,
// Content-Type, Retry-After and body of each answer are held to
// testdata/wire_contract.json. Error bodies may gain the envelope's
// additive `kind` / `retryAfterMs` fields; everything else — every status
// code, every `error` text, every 200 body — is compared exactly.
//
// To regenerate (only when a contract change is intended and reviewed),
// delete the golden file and run the test: it writes what the handlers
// answer now and fails, so the new file cannot land unread.
const contractGolden = "testdata/wire_contract.json"

// contractRecord is what one request is held to.
type contractRecord struct {
	Status      int    `json:"status"`
	ContentType string `json:"contentType"`
	RetryAfter  string `json:"retryAfter,omitempty"`
	// Body is the response body; non-text bodies are stored as their
	// sha256, volatile 200 bodies (timings, uptimes) as their sorted
	// top-level keys, and unordered ones re-encoded with sorted keys.
	Body string `json:"body"`
}

// contractCase is one request against one handler.
type contractCase struct {
	name   string
	h      http.Handler
	method string
	path   string
	body   string
	mode   int
}

// Body modes of a contract case.
const (
	exact = iota
	// volatile marks a 200 body that carries measured values; only its
	// key set is pinned.
	volatile
	// unordered marks a body compared as JSON values rather than bytes:
	// the replica hop's answers, whose both ends live in this repository
	// and whose field order is no public contract. An answer that is no
	// JSON (the hop's predict frame) is pinned by its hash like any other
	// binary body.
	unordered
)

func recordOf(rec *httptest.ResponseRecorder, mode int) contractRecord {
	out := contractRecord{
		Status:      rec.Code,
		ContentType: rec.Header().Get("Content-Type"),
		RetryAfter:  rec.Header().Get("Retry-After"),
	}
	raw := rec.Body.Bytes()
	isJSON := strings.HasPrefix(out.ContentType, "application/json")
	switch {
	case mode == unordered && rec.Code == http.StatusOK && isJSON:
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			out.Body = "not JSON: " + string(raw)
			break
		}
		sorted, err := json.Marshal(v)
		if err != nil {
			out.Body = "not JSON: " + string(raw)
			break
		}
		out.Body = string(sorted)
	case mode == volatile:
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(raw, &obj); err != nil {
			out.Body = "not an object: " + string(raw)
			break
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out.Body = "keys:" + strings.Join(keys, ",")
	case isJSON, strings.HasPrefix(out.ContentType, "text/plain"):
		out.Body = string(raw)
	default:
		out.Body = fmt.Sprintf("sha256:%x", sha256.Sum256(raw))
	}
	return out
}

// sameContract compares an answer to its golden record. The envelope
// fields a later wire layer may add to error bodies are dropped first.
func sameContract(got, want contractRecord) bool {
	if got.Status != want.Status || got.ContentType != want.ContentType || got.RetryAfter != want.RetryAfter {
		return false
	}
	if got.Status < 400 || !strings.HasPrefix(got.ContentType, "application/json") {
		return got.Body == want.Body
	}
	var g, w map[string]any
	if json.Unmarshal([]byte(got.Body), &g) != nil || json.Unmarshal([]byte(want.Body), &w) != nil {
		return got.Body == want.Body
	}
	for _, additive := range []string{"kind", "retryAfterMs"} {
		delete(g, additive)
		delete(w, additive)
	}
	return reflect.DeepEqual(g, w)
}

// handlerTransport answers a client's requests from a handler in process
// and keeps the last raw answer, so the replica routes can be driven
// through cluster.HTTPBackend (whose request bodies are its own business)
// while the test still sees status, headers and body.
type handlerTransport struct {
	h    http.Handler
	last *httptest.ResponseRecorder
}

func (t *handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.last = httptest.NewRecorder()
	t.h.ServeHTTP(t.last, r)
	return t.last.Result(), nil
}

// raggedRows is a batch whose row 3 is a value short.
var raggedRows = [][]float64{{2, 0}, {-2, 0}, {2, 0}, {2}}

func contractTable(seed int64, n, d int) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, d)
	for j := range names {
		names[j] = fmt.Sprintf("f%d", j)
	}
	tb := dataset.New("sep", names, []string{"a", "b"})
	for i := 0; i < n; i++ {
		y := i % 2
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.NormFloat64() * 0.4
		}
		x[0] += float64(y)*4 - 2
		if err := tb.Append(x, y); err != nil {
			panic(err)
		}
	}
	return tb
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func contractModel(t *testing.T, seed int64, d int) (ml.Classifier, json.RawMessage) {
	t.Helper()
	cfg := ml.DefaultLogRegConfig()
	cfg.Seed = seed
	m := ml.NewLogReg(cfg)
	if err := m.Fit(contractTable(seed, 120, d)); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, blob
}

// contractNN is a three-input network, the model kind that knows its
// input width and refuses any other.
func contractNN(t *testing.T) json.RawMessage {
	t.Helper()
	nn := ml.NewMLP(ml.MLPConfig{Hidden: []int{4}, LearningRate: 0.05, Momentum: 0.9, Epochs: 5, BatchSize: 16, Seed: 1})
	if err := nn.Fit(contractTable(1, 60, 3)); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(nn)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// contractTree is a decision tree, the model kind that refuses a row
// with too few features.
func contractTree(t *testing.T) (ml.Classifier, json.RawMessage) {
	t.Helper()
	tree := ml.NewTree(ml.TreeConfig{MaxDepth: 3, MinLeaf: 1, Seed: 1})
	if err := tree.Fit(contractTable(1, 60, 2)); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(tree)
	if err != nil {
		t.Fatal(err)
	}
	return tree, blob
}

// contractWideTree is a tree whose decisive feature is the second of two,
// so it cannot score a one-feature instance.
func contractWideTree(t *testing.T) json.RawMessage {
	t.Helper()
	tb := contractTable(1, 60, 2)
	for _, x := range tb.X {
		x[0], x[1] = x[1], x[0]
	}
	tree := ml.NewTree(ml.TreeConfig{MaxDepth: 3, MinLeaf: 1, Seed: 1})
	if err := tree.Fit(tb); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(tree)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// contractTier is a cluster of in-process replicas on one fake clock,
// with two versions of "demo" and a "tree" registered.
type contractTier struct {
	c    *cluster.Cluster
	reps []*cluster.Replica
}

func newContractTier(t *testing.T, n int, rcfg serving.Config) *contractTier {
	t.Helper()
	fake := clock.NewFake(time.Date(2024, 7, 1, 0, 0, 0, 0, time.UTC))
	rcfg.Clock = fake
	tier := &contractTier{c: cluster.New(cluster.Config{Clock: fake})}
	for i := 0; i < n; i++ {
		rp := cluster.NewReplica(fmt.Sprintf("replica-%d", i), rcfg)
		t.Cleanup(rp.Close)
		tier.reps = append(tier.reps, rp)
		if err := tier.c.Join(rp); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		m, _ := contractModel(t, seed, 2)
		if _, err := tier.c.Register("demo", m); err != nil {
			t.Fatal(err)
		}
	}
	tree, _ := contractTree(t)
	if _, err := tier.c.Register("tree", tree); err != nil {
		t.Fatal(err)
	}
	return tier
}

// serviceCases lists every route of the eight metric services.
func serviceCases(t *testing.T) []contractCase {
	t.Helper()
	const (
		malformed = `{"modelId":`
		unknown   = `{"noSuchField":1}`
	)
	_, blob2 := contractModel(t, 1, 2)
	_, blob4 := contractModel(t, 1, 4)
	_, treeBlob := contractTree(t)
	nn3 := contractNN(t)
	wideTree := contractWideTree(t)
	garbage := json.RawMessage(`{"kind":"alien","spec":{}}`)
	good := service.FromTable(contractTable(1, 40, 2))
	bad := service.TableJSON{FeatureNames: []string{"f"}, ClassNames: []string{"a"}, X: [][]float64{{1, 2}}, Y: []int{0}}
	// A valid table whose third class the two-class models have no row for.
	thirdClass := service.TableJSON{FeatureNames: []string{"f0", "f1"}, ClassNames: []string{"a", "b", "c"}, X: [][]float64{{2, 0}, {-2, 0}}, Y: []int{0, 2}}
	image := []float64{0.9, 0.1, 0.8, 0.2}
	huge := []float64{1e308, 1e308, -1e308}
	manyRows := make([][]float64, 800) // more than the default limit of 768 a request
	for i := range manyRows {
		manyRows[i] = []float64{2, 0}
	}

	mlSvc := service.NewMLService()
	t.Cleanup(mlSvc.Close)
	shap, lime, occ := service.NewSHAPService(), service.NewLIMEService(), service.NewOcclusionService()
	res, fair, priv, drift := service.NewResilienceService(), service.NewFairnessService(), service.NewPrivacyService(), service.NewDriftService()

	var cases []contractCase
	add := func(name string, h http.Handler, method, path string, body any) {
		s, ok := body.(string)
		if !ok && body != nil {
			s = mustJSON(t, body)
		}
		cases = append(cases, contractCase{name: name, h: h, method: method, path: path, body: s})
	}
	// Every POST route answers malformed JSON and an unknown field alike.
	for _, rt := range []struct {
		svc  string
		h    http.Handler
		path string
	}{
		{"ml", mlSvc, "/train"}, {"ml", mlSvc, "/predict"}, {"ml", mlSvc, "/models/promote"}, {"ml", mlSvc, "/models/rollback"},
		{"shap", shap, "/explain"}, {"lime", lime, "/explain/tabular"}, {"lime", lime, "/explain/image"},
		{"occlusion", occ, "/explain"}, {"occlusion", occ, "/explain/png"},
		{"resilience", res, "/impact/poisoning"}, {"resilience", res, "/impact/evasion"},
		{"fairness", fair, "/fairness"}, {"privacy", priv, "/membership"}, {"drift", drift, "/drift"},
	} {
		add(rt.svc+rt.path+" malformed", rt.h, "POST", rt.path, malformed)
		add(rt.svc+rt.path+" unknown field", rt.h, "POST", rt.path, unknown)
	}

	// ML pipeline, in order: the service is stateful.
	add("ml/train bad table", mlSvc, "POST", "/train", service.TrainRequest{Algorithm: "lr", Train: bad})
	add("ml/train unknown algorithm", mlSvc, "POST", "/train", service.TrainRequest{Algorithm: "nope", Train: good})
	add("ml/train bad eval table", mlSvc, "POST", "/train", service.TrainRequest{Algorithm: "lr", Train: good, Eval: &bad, Seed: 1})
	add("ml/train ok v1", mlSvc, "POST", "/train", service.TrainRequest{Algorithm: "lr", Train: good, Seed: 1})
	add("ml/train ok v2", mlSvc, "POST", "/train", service.TrainRequest{Algorithm: "lr", Train: good, Eval: &good, Seed: 2})
	add("ml/predict unknown model", mlSvc, "POST", "/predict", service.PredictRequest{ModelID: "nope", Instances: [][]float64{{2, 0}}})
	add("ml/train ok dt", mlSvc, "POST", "/train", service.TrainRequest{Algorithm: "dt", Train: good, Seed: 1})
	add("ml/predict dimension mismatch", mlSvc, "POST", "/predict", service.PredictRequest{ModelID: "dt", Instances: [][]float64{{}}})
	add("ml/predict too many instances", mlSvc, "POST", "/predict", service.PredictRequest{ModelID: "m0001", Instances: manyRows})
	add("ml/predict ragged rows", mlSvc, "POST", "/predict", service.PredictRequest{ModelID: "m0001", Instances: raggedRows})
	add("ml/predict ok", mlSvc, "POST", "/predict", service.PredictRequest{ModelID: "lr@1", Instances: [][]float64{{2, 0}, {-2, 0}}})
	add("ml/predict no instances", mlSvc, "POST", "/predict", service.PredictRequest{ModelID: "m0001"})
	add("ml/models list", mlSvc, "GET", "/models", nil)
	add("ml/models get", mlSvc, "GET", "/models/m0001", nil)
	add("ml/models get unknown", mlSvc, "GET", "/models/nope", nil)
	add("ml/aliases", mlSvc, "GET", "/aliases", nil)
	add("ml/promote unknown alias", mlSvc, "POST", "/models/promote", service.PromoteRequest{Name: "nope", Version: 1})
	add("ml/promote unknown version", mlSvc, "POST", "/models/promote", service.PromoteRequest{Name: "lr", Version: 9})
	add("ml/rollback unknown alias", mlSvc, "POST", "/models/rollback", service.RollbackRequest{Name: "nope"})
	add("ml/rollback nothing to roll back", mlSvc, "POST", "/models/rollback", service.RollbackRequest{Name: "lr"})
	add("ml/promote ok", mlSvc, "POST", "/models/promote", service.PromoteRequest{Name: "lr", Version: 2})
	add("ml/rollback ok", mlSvc, "POST", "/models/rollback", service.RollbackRequest{Name: "lr"})
	add("ml/train ok nn", mlSvc, "POST", "/train", service.TrainRequest{Algorithm: "nn", Train: good, Seed: 1})
	add("ml/predict non-finite output", mlSvc, "POST", "/predict", service.PredictRequest{ModelID: "nn", Instances: [][]float64{{1e308, 1e308}}})
	add("ml/healthz", mlSvc, "GET", "/healthz", nil)

	// Explainers: the model travels inline.
	add("shap/explain missing model", shap, "POST", "/explain", `{"instance":[2,0],"background":[[0,0]]}`)
	add("shap/explain null model", shap, "POST", "/explain", service.SHAPRequest{Instance: []float64{2, 0}, Background: [][]float64{{0, 0}}})
	add("shap/explain undecodable model", shap, "POST", "/explain", service.SHAPRequest{Model: garbage, Instance: []float64{2, 0}, Background: [][]float64{{0, 0}}})
	add("shap/explain dimension mismatch", shap, "POST", "/explain", service.SHAPRequest{Model: blob2, Instance: []float64{2, 0, 1}, Class: 1, Background: [][]float64{{0, 0}}})
	add("shap/explain model dimension mismatch", shap, "POST", "/explain", service.SHAPRequest{Model: nn3, Instance: []float64{2, 0, 1, 1}, Class: 1, Background: [][]float64{{0, 0, 0, 0}}})
	add("shap/explain tree dimension mismatch", shap, "POST", "/explain", service.SHAPRequest{Model: wideTree, Instance: []float64{2}, Class: 1, Background: [][]float64{{0}}})
	add("shap/explain too many samples", shap, "POST", "/explain", service.SHAPRequest{Model: blob2, Instance: []float64{2, 0}, Class: 1, Background: [][]float64{{0, 0}}, Samples: 1 << 62})
	add("shap/explain ok", shap, "POST", "/explain", service.SHAPRequest{Model: blob2, Instance: []float64{2, 0}, Class: 1, Background: [][]float64{{-2, 0}, {0, 0}}, Samples: 64, Seed: 1})
	// A finite instance the network scores as NaN (its sums overflow): the
	// surrogate regression refuses it with a 422.
	add("shap/explain non-finite model output", shap, "POST", "/explain", service.SHAPRequest{Model: nn3, Instance: huge, Class: 1, Background: [][]float64{{0, 0, 0}}, Samples: 16, Seed: 1})
	add("lime/tabular missing model", lime, "POST", "/explain/tabular", `{"instance":[2,0],"scale":[1,1]}`)
	add("lime/tabular undecodable model", lime, "POST", "/explain/tabular", service.LIMETabularRequest{Model: garbage, Instance: []float64{2, 0}, Scale: []float64{1, 1}})
	add("lime/tabular dimension mismatch", lime, "POST", "/explain/tabular", service.LIMETabularRequest{Model: blob2, Instance: []float64{2, 0}, Class: 1, Scale: []float64{1}})
	add("lime/tabular model dimension mismatch", lime, "POST", "/explain/tabular", service.LIMETabularRequest{Model: nn3, Instance: []float64{2, 0}, Class: 1, Scale: []float64{1, 1}})
	add("lime/tabular tree dimension mismatch", lime, "POST", "/explain/tabular", service.LIMETabularRequest{Model: wideTree, Instance: []float64{2}, Class: 1, Scale: []float64{1}})
	add("lime/tabular too many samples", lime, "POST", "/explain/tabular", service.LIMETabularRequest{Model: blob2, Instance: []float64{2, 0}, Class: 1, Scale: []float64{1, 1}, Samples: 1 << 62})
	add("lime/tabular ok", lime, "POST", "/explain/tabular", service.LIMETabularRequest{Model: blob2, Instance: []float64{2, 0}, Class: 1, Scale: []float64{1, 1}, Samples: 64, Seed: 2})
	add("lime/tabular non-finite model output", lime, "POST", "/explain/tabular", service.LIMETabularRequest{Model: nn3, Instance: huge, Class: 1, Scale: []float64{1, 1, 1}, Samples: 16, Seed: 1})
	add("lime/image missing model", lime, "POST", "/explain/image", `{"image":[0.9,0.1,0.8,0.2],"w":2,"h":2}`)
	add("lime/image bad geometry", lime, "POST", "/explain/image", service.LIMEImageRequest{Model: blob4, Image: image, W: 3, H: 2, Patch: 1})
	add("lime/image too many samples", lime, "POST", "/explain/image", service.LIMEImageRequest{Model: blob4, Image: image, Class: 1, W: 2, H: 2, Patch: 1, Samples: 1 << 62})
	add("lime/image ok", lime, "POST", "/explain/image", service.LIMEImageRequest{Model: blob4, Image: image, Class: 1, W: 2, H: 2, Patch: 1, Samples: 32, Seed: 4})
	for _, path := range []string{"/explain", "/explain/png"} {
		add("occlusion"+path+" missing model", occ, "POST", path, `{"image":[0.9,0.1,0.8,0.2],"w":2,"h":2}`)
		add("occlusion"+path+" bad geometry", occ, "POST", path, service.OcclusionRequest{Model: blob4, Image: image, W: 3, H: 2, Window: 1})
		add("occlusion"+path+" ok", occ, "POST", path, service.OcclusionRequest{Model: blob4, Image: image, Class: 1, W: 2, H: 2, Window: 1})
	}

	// Resilience, fairness, privacy, drift.
	add("resilience/poisoning rate out of range", res, "POST", "/impact/poisoning", service.PoisonImpactRequest{Baseline: ml.Metrics{Accuracy: 0.9}, Poisoned: ml.Metrics{Accuracy: 0.5}, Rate: 2})
	add("resilience/poisoning ok", res, "POST", "/impact/poisoning", service.PoisonImpactRequest{Baseline: ml.Metrics{Accuracy: 0.9}, Poisoned: ml.Metrics{Accuracy: 0.45}, Rate: 0.2})
	add("resilience/evasion missing model", res, "POST", "/impact/evasion", `{"clean":{"featureNames":[],"classNames":[],"x":[],"y":[]},"eps":0.5}`)
	add("resilience/evasion undecodable surrogate", res, "POST", "/impact/evasion", service.EvasionImpactRequest{Model: blob2, Surrogate: garbage, Clean: good, Eps: 0.5})
	add("resilience/evasion not differentiable", res, "POST", "/impact/evasion", service.EvasionImpactRequest{Model: treeBlob, Clean: good, Eps: 0.5})
	add("resilience/evasion bad table", res, "POST", "/impact/evasion", service.EvasionImpactRequest{Model: blob2, Clean: bad, Eps: 0.5})
	add("resilience/evasion table dimension mismatch", res, "POST", "/impact/evasion", service.EvasionImpactRequest{Model: nn3, Clean: good, Eps: 0.5})
	add("resilience/evasion label out of range", res, "POST", "/impact/evasion", service.EvasionImpactRequest{Model: blob2, Clean: thirdClass, Eps: 0.5})
	add("resilience/evasion ok", res, "POST", "/impact/evasion", service.EvasionImpactRequest{Model: blob2, Clean: good, Eps: 0.5})
	cases[len(cases)-1].mode = volatile // the report carries the measured crafting cost
	add("fairness misaligned", fair, "POST", "/fairness", service.FairnessRequest{Pred: []int{1}, Truth: []int{1, 0}, Group: []int{0}})
	add("fairness ok", fair, "POST", "/fairness", service.FairnessRequest{
		Pred: []int{1, 1, 0, 0, 1, 0, 0, 0}, Truth: []int{1, 1, 0, 0, 1, 1, 0, 0}, Group: []int{0, 0, 0, 0, 1, 1, 1, 1},
		Positive: 1, GroupNames: [2]string{"A", "B"}})
	add("privacy/membership missing model", priv, "POST", "/membership", `{"members":{"featureNames":[],"classNames":[],"x":[],"y":[]},"nonMembers":{"featureNames":[],"classNames":[],"x":[],"y":[]}}`)
	add("privacy/membership bad members", priv, "POST", "/membership", service.MembershipRequest{Model: blob2, Members: bad, NonMembers: good})
	add("privacy/membership bad nonMembers", priv, "POST", "/membership", service.MembershipRequest{Model: blob2, Members: good, NonMembers: bad})
	add("privacy/membership table dimension mismatch", priv, "POST", "/membership", service.MembershipRequest{Model: nn3, Members: good, NonMembers: good})
	add("privacy/membership label out of range", priv, "POST", "/membership", service.MembershipRequest{Model: blob2, Members: good, NonMembers: thirdClass})
	add("privacy/membership ok", priv, "POST", "/membership", service.MembershipRequest{Model: blob2, Members: good, NonMembers: service.FromTable(contractTable(7, 40, 2))})
	add("drift bad reference", drift, "POST", "/drift", service.DriftRequest{Reference: bad, Batch: good})
	add("drift bad batch", drift, "POST", "/drift", service.DriftRequest{Reference: good, Batch: bad})
	add("drift reference too small", drift, "POST", "/drift", service.DriftRequest{Reference: service.FromTable(contractTable(1, 4, 2)), Batch: good})
	add("drift ok", drift, "POST", "/drift", service.DriftRequest{Reference: good, Batch: service.FromTable(contractTable(9, 40, 2))})
	return cases
}

// clusterCases lists every route of cluster.Handler over healthy, narrow
// (one instance a request), dead and empty tiers.
func clusterCases(t *testing.T) []contractCase {
	t.Helper()
	healthy := newContractTier(t, 3, serving.Config{MaxBatch: 1})
	narrow := newContractTier(t, 1, serving.Config{MaxBatch: 1, ShedWatermark: 1})
	dead := newContractTier(t, 1, serving.Config{MaxBatch: 1})
	dead.reps[0].Kill()
	empty := cluster.New(cluster.Config{Clock: clock.NewFake(time.Unix(0, 0))})

	front := healthy.c.Handler()
	two := [][]float64{{2, 0}, {-2, 0}}
	var cases []contractCase
	add := func(name string, h http.Handler, method, path string, body any) {
		s, ok := body.(string)
		if !ok && body != nil {
			s = mustJSON(t, body)
		}
		cases = append(cases, contractCase{name: "cluster" + name, h: h, method: method, path: path, body: s})
	}
	for _, path := range []string{"/predict", "/cluster/promote", "/cluster/rollback"} {
		add(path+" malformed", front, "POST", path, `{"name":`)
		add(path+" unknown field", front, "POST", path, `{"noSuchField":1}`)
	}
	add("/predict unknown model", front, "POST", "/predict", service.PredictRequest{ModelID: "nope", Instances: two})
	add("/predict dimension mismatch", front, "POST", "/predict", service.PredictRequest{ModelID: "tree", Instances: [][]float64{{}}})
	add("/predict ragged rows", front, "POST", "/predict", service.PredictRequest{ModelID: "demo", Instances: raggedRows})
	add("/predict ok", front, "POST", "/predict", service.PredictRequest{ModelID: "demo", Instances: two})
	add("/predict no instances", front, "POST", "/predict", service.PredictRequest{ModelID: "demo"})
	add("/predict too many instances", narrow.c.Handler(), "POST", "/predict", service.PredictRequest{ModelID: "demo", Instances: two})
	add("/predict killed replica", dead.c.Handler(), "POST", "/predict", service.PredictRequest{ModelID: "demo", Instances: two})
	add("/predict empty tier", empty.Handler(), "POST", "/predict", service.PredictRequest{ModelID: "demo", Instances: two})
	add("/promote unknown alias", front, "POST", "/cluster/promote", service.PromoteRequest{Name: "nope", Version: 1})
	add("/promote unknown version", front, "POST", "/cluster/promote", service.PromoteRequest{Name: "demo", Version: 9})
	add("/rollback unknown alias", front, "POST", "/cluster/rollback", service.RollbackRequest{Name: "nope"})
	add("/rollback nothing to roll back", front, "POST", "/cluster/rollback", service.RollbackRequest{Name: "demo"})
	add("/promote ok", front, "POST", "/cluster/promote", service.PromoteRequest{Name: "demo", Version: 2})
	add("/rollback ok", front, "POST", "/cluster/rollback", service.RollbackRequest{Name: "demo"})
	add("/status", front, "GET", "/cluster/status", nil)
	add("/healthz", front, "GET", "/healthz", nil)
	return cases
}

func TestHTTPContract(t *testing.T) {
	got := make(map[string]contractRecord)
	record := func(name string, rec *httptest.ResponseRecorder, mode int) {
		if _, dup := got[name]; dup {
			t.Fatalf("duplicate contract case %q", name)
		}
		got[name] = recordOf(rec, mode)
	}
	for _, c := range append(serviceCases(t), clusterCases(t)...) {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, req)
		record(c.name, rec, c.mode)
	}

	// Replica.Handler: raw bodies where the answer does not depend on the
	// hop's request shape, cluster.HTTPBackend for everything else.
	ctx := context.Background()
	two := [][]float64{{2, 0}, {-2, 0}}
	fake := clock.NewFake(time.Date(2024, 7, 1, 0, 0, 0, 0, time.UTC))
	rp := cluster.NewReplica("replica-0", serving.Config{MaxBatch: 1, Clock: fake})
	t.Cleanup(rp.Close)
	h := rp.Handler()
	for _, path := range []string{"/replica/predict", "/replica/push", "/replica/prepare", "/replica/commit", "/replica/abort"} {
		for name, body := range map[string]string{"malformed": `{"txn":`, "unknown field": `{"noSuchField":1}`} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
			record("replica"+path+" "+name, rec, exact)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/replica/predict", strings.NewReader(mustJSON(t, service.PredictRequest{ModelID: "demo@1", Instances: raggedRows}))))
	record("replica/replica/predict ragged rows", rec, exact)
	tr := &handlerTransport{h: h}
	hb := cluster.NewHTTPBackend("replica-0", "http://replica", &http.Client{Transport: tr})
	_, blob := contractModel(t, 1, 2)
	_, treeBlob := contractTree(t)
	// via records the raw answer to one backend call; the call's own
	// error is the round-trip half's business, not this test's.
	via := func(name string, call func()) {
		call()
		record("replica/"+name, tr.last, unordered)
	}
	var ref serving.Ref
	via("push ok", func() { ref, _ = hb.Push(ctx, "demo", "lr", blob) })
	via("push undecodable blob", func() { _, _ = hb.Push(ctx, "demo", "lr", []byte("not a model")) })
	via("aliases ok", func() { _, _ = hb.Aliases(ctx) })
	via("heartbeat ok", func() { _, _ = hb.Heartbeat(ctx) })
	via("predict ok", func() { _, _, _ = hb.Predict(ctx, "demo@1", two) })
	via("predict unknown model", func() { _, _, _ = hb.Predict(ctx, "nope", two) })
	via("push tree", func() { _, _ = hb.Push(ctx, "tree", "dt", treeBlob) })
	via("predict dimension mismatch", func() { _, _, _ = hb.Predict(ctx, "tree@1", [][]float64{{}}) })
	via("prepare unknown version", func() { _ = hb.Prepare(ctx, "t1", "demo", 9, ref.ID, time.Second) })
	via("prepare wrong content id", func() { _ = hb.Prepare(ctx, "t1", "demo", 1, "sha256:0000", time.Second) })
	via("prepare ok", func() { _ = hb.Prepare(ctx, "t1", "demo", 1, ref.ID, time.Second) })
	via("commit ok", func() { _ = hb.Commit(ctx, "t1") })
	via("commit unknown txn", func() { _ = hb.Commit(ctx, "t1") })
	via("abort ok", func() { _ = hb.Abort(ctx, "never-prepared") })

	narrow := cluster.NewReplica("replica-narrow", serving.Config{MaxBatch: 1, ShedWatermark: 1, Clock: fake})
	t.Cleanup(narrow.Close)
	if _, err := narrow.Push(ctx, "demo", "lr", blob); err != nil {
		t.Fatal(err)
	}
	tr.h = narrow.Handler()
	via("predict too many instances", func() { _, _, _ = hb.Predict(ctx, "demo@1", two) })

	rp.Kill()
	tr.h = h
	via("heartbeat killed", func() { _, _ = hb.Heartbeat(ctx) })
	via("predict killed", func() { _, _, _ = hb.Predict(ctx, "demo@1", two) })
	via("push killed", func() { _, _ = hb.Push(ctx, "demo", "lr", blob) })
	via("aliases killed", func() { _, _ = hb.Aliases(ctx) })
	via("prepare killed", func() { _ = hb.Prepare(ctx, "t2", "demo", 1, ref.ID, time.Second) })
	via("commit killed", func() { _ = hb.Commit(ctx, "t2") })
	via("abort killed", func() { _ = hb.Abort(ctx, "t2") })
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	record("replica/healthz", rec, exact)

	raw, err := os.ReadFile(contractGolden)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(contractGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(contractGolden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: wrote %d records from the current handlers — review the diff before committing", contractGolden, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]contractRecord
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: pinned case no longer driven", name)
			continue
		}
		if !sameContract(g, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: case has no pinned record", name)
		}
	}
}

// TestPredictAnswersInKind: "a frame is answered with a frame, JSON with
// JSON" is one rule of the shared predict handler, not a property of the
// mount. The replica hop still answers curl's JSON exactly as it did when
// JSON was what HTTPBackend sent it, and the public /ml/predict answers a
// frame with the bits its JSON answer prints.
func TestPredictAnswersInKind(t *testing.T) {
	ctx := context.Background()
	two := [][]float64{{2, 0}, {-2, 0}}
	m, blob := contractModel(t, 1, 2)

	rp := cluster.NewReplica("replica-0", serving.Config{MaxBatch: 1})
	t.Cleanup(rp.Close)
	if _, err := rp.Push(ctx, "demo", "lr", blob); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rp.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/replica/predict", strings.NewReader(mustJSON(t, service.PredictRequest{ModelID: "demo@1", Instances: two}))))
	// The hop's 200 answer as the contract pinned it before frames.
	const was = `{"classes":[1,0],"probs":[[0.004043211956780152,0.9959567880432199],[0.9959082755903799,0.004091724409620166]]}` + "\n"
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" || rec.Body.String() != was {
		t.Fatalf("JSON to /replica/predict: %d %q %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}

	mlSvc := service.NewMLService()
	t.Cleanup(mlSvc.Close)
	if _, err := mlSvc.Runtime().Registry().Register("demo", m); err != nil {
		t.Fatal(err)
	}
	tr := &handlerTransport{h: mlSvc}
	probs, classes, err := wire.Predict(ctx, &http.Client{Transport: tr}, "http://ml/predict", "demo", two)
	if err != nil {
		t.Fatal(err)
	}
	if ct := tr.last.Header().Get("Content-Type"); ct != wire.FrameType {
		t.Fatalf("frame to /ml/predict answered as %q", ct)
	}
	asJSON, err := json.Marshal(serving.PredictResponse{Classes: classes, Probs: probs})
	if err != nil {
		t.Fatal(err)
	}
	if string(asJSON)+"\n" != was {
		t.Fatalf("frame to /ml/predict carried %s", asJSON)
	}
}
