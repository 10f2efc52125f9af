package serving

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/telemetry"
)

// sepTable builds a small linearly separable two-class table.
func sepTable(seed int64, n int) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	tb := dataset.New("sep", []string{"f0", "f1"}, []string{"a", "b"})
	for i := 0; i < n; i++ {
		y := i % 2
		if err := tb.Append([]float64{float64(y)*4 - 2 + rng.NormFloat64()*0.4, rng.NormFloat64()}, y); err != nil {
			panic(err)
		}
	}
	return tb
}

func trainedLogReg(t *testing.T, seed int64) ml.Classifier {
	t.Helper()
	cfg := ml.DefaultLogRegConfig()
	cfg.Seed = seed
	m := ml.NewLogReg(cfg)
	if err := m.Fit(sepTable(seed, 120)); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegistryContentAddressingAndVersions(t *testing.T) {
	reg := NewRegistry(0)
	m := trainedLogReg(t, 1)

	ref1, err := reg.Register("fall", m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ref1.ID, "sha256:") || ref1.Version != 1 {
		t.Fatalf("ref %+v", ref1)
	}
	// Registering the same bytes under another name deduplicates storage.
	ref2, err := reg.Register("fall-copy", m)
	if err != nil {
		t.Fatal(err)
	}
	if ref2.ID != ref1.ID {
		t.Fatalf("same model hashed to %s and %s", ref1.ID, ref2.ID)
	}
	if reg.Len() != 1 {
		t.Fatalf("entries %d, want 1 (content dedup)", reg.Len())
	}

	// A second, different version under the same name.
	m2 := trainedLogReg(t, 2)
	ref3, err := reg.Register("fall", m2)
	if err != nil {
		t.Fatal(err)
	}
	if ref3.Version != 2 || ref3.ID == ref1.ID {
		t.Fatalf("v2 ref %+v", ref3)
	}

	// v1 auto-promoted; v2 awaits Promote.
	for ref, want := range map[string]string{
		"fall":        ref1.ID,
		"fall@1":      ref1.ID,
		"fall@2":      ref3.ID,
		"fall@latest": ref3.ID,
		ref3.ID:       ref3.ID,
	} {
		got, err := reg.Resolve(ref)
		if err != nil {
			t.Fatalf("resolve %q: %v", ref, err)
		}
		if got != want {
			t.Fatalf("resolve %q = %s, want %s", ref, got, want)
		}
	}

	if err := reg.Promote("fall", 2); err != nil {
		t.Fatal(err)
	}
	if id, _ := reg.Resolve("fall"); id != ref3.ID {
		t.Fatalf("after promote, fall -> %s, want %s", id, ref3.ID)
	}
	back, err := reg.Rollback("fall")
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 1 {
		t.Fatalf("rollback landed on v%d", back.Version)
	}
	if id, _ := reg.Resolve("fall"); id != ref1.ID {
		t.Fatalf("after rollback, fall -> %s, want %s", id, ref1.ID)
	}

	aliases := reg.Aliases()
	if len(aliases) != 2 || aliases[0].Name != "fall" || aliases[0].Current != 1 {
		t.Fatalf("aliases %+v", aliases)
	}
}

func TestRegistryResolveErrors(t *testing.T) {
	reg := NewRegistry(0)
	if _, err := reg.Register("a@b", trainedLogReg(t, 1)); err == nil {
		t.Fatal("name with @ should be rejected")
	}
	if _, err := reg.Register("", trainedLogReg(t, 1)); err == nil {
		t.Fatal("empty name should be rejected")
	}
	for _, ref := range []string{"nope", "nope@1", "sha256:beef", "fall@0"} {
		_, err := reg.Resolve(ref)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("resolve %q: err %v, want ErrNotFound", ref, err)
		}
	}
	if _, err := reg.Register("fall", trainedLogReg(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Resolve("fall@junk"); err == nil {
		t.Fatal("non-numeric version should error")
	}
	if err := reg.Promote("fall", 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("promote out of range: %v", err)
	}
	if _, err := reg.Rollback("fall"); err == nil {
		t.Fatal("rollback with no history should error")
	}
}

// TestRegistryLRUEvictionAndColdLoad pins the warm-cache contract: a
// tiny byte budget evicts the least recently used model back to bytes
// (observable via the runtime's telemetry), and a later predict cold
// loads it with identical results.
func TestRegistryLRUEvictionAndColdLoad(t *testing.T) {
	tel := telemetry.NewRegistry()
	rt := New(Config{Telemetry: tel})
	defer rt.Close()
	rt.reg = newRegistry(1, rt.met) // budget smaller than any model
	reg := rt.Registry()

	m1 := trainedLogReg(t, 1)
	ref1, err := reg.Register("a", m1)
	if err != nil {
		t.Fatal(err)
	}
	if reg.WarmBytes() == 0 {
		t.Fatal("just-registered model should stay warm even over budget")
	}
	// Second registration evicts the first (budget fits at most one).
	if _, err := reg.Register("b", trainedLogReg(t, 2)); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, tel, "spatial_serving_evictions_total"); got != 1 {
		t.Fatalf("evictions %v, want 1", got)
	}

	// Cold load: model "a" deserializes on demand and predicts the same.
	got, err := reg.Model(ref1.ID)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{2, 0}
	want := m1.PredictProba(x)
	if p := got.PredictProba(x); ml.ArgmaxAll([][]float64{p})[0] != ml.ArgmaxAll([][]float64{want})[0] {
		t.Fatalf("cold-loaded model predicts %v, original %v", p, want)
	}
	if metricValue(t, tel, "spatial_serving_cold_loads_total") < 1 {
		t.Fatal("cold load not counted")
	}
	if metricValue(t, tel, "spatial_serving_registry_models") != 2 {
		t.Fatal("model gauge should report 2 entries")
	}
}

// metricValue reads an unlabeled series value from a telemetry registry.
func metricValue(t *testing.T, tel *telemetry.Registry, name string) float64 {
	t.Helper()
	for _, fam := range tel.Gather() {
		if fam.Name == name {
			if len(fam.Series) != 1 {
				t.Fatalf("metric %s has %d series", name, len(fam.Series))
			}
			return fam.Series[0].Value
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
