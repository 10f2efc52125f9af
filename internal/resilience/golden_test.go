package resilience

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/ml"
)

// evasionGolden holds the math.Float64bits of Evasion's report for four
// victims on a fixed table, recorded from the implementation that scored
// the victim a row at a time (two ml.Predict per instance, then two
// ml.Evaluate). Impact and both accuracies are ratios of prediction
// counts, so any prediction that moves between the one-row form and the
// batch kernels moves these bits. Regenerate only on purpose: delete the
// file and run the test (it rewrites the file and fails).
const evasionGolden = "testdata/evasion_golden.json"

func TestEvasionGoldenBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := dataset.New("golden", []string{"f0", "f1", "f2", "f3", "f4"}, []string{"c0", "c1", "c2"})
	for i := 0; i < 240; i++ {
		y := i % 3
		row := make([]float64, 5)
		for j := range row {
			row[j] = rng.NormFloat64() + float64(y)*0.8*(0.5+float64(j%3))
		}
		if err := tb.Append(row, y); err != nil {
			t.Fatal(err)
		}
	}
	nnCfg := ml.DefaultMLPConfig()
	nnCfg.Epochs = 6
	lgbmCfg := ml.DefaultLightGBMConfig()
	lgbmCfg.Rounds = 12
	victims := []ml.Classifier{
		ml.NewMLP(nnCfg),
		ml.NewLogReg(ml.DefaultLogRegConfig()),
		ml.NewForest(ml.ForestConfig{Trees: 12, MaxDepth: 6, MinLeaf: 1, MaxFeatures: -1, Seed: 1}),
		ml.NewGBDT(lgbmCfg),
	}
	for _, m := range victims {
		if err := m.Fit(tb); err != nil {
			t.Fatalf("%s fit: %v", m.Name(), err)
		}
	}
	// The network crafts every perturbation: white-box against itself, a
	// transfer attack against the other three, as in use case 2.
	adv, err := attack.FGSM(victims[0].(ml.GradientClassifier), tb, 0.6)
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[string][]string)
	for _, m := range victims {
		rep, err := Evasion(m, tb, adv.Adversarial, 50*time.Microsecond)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if rep.Impact <= 0 || rep.Impact >= 1 {
			t.Errorf("%s: impact %v pins nothing; pick an eps that flips some rows", m.Name(), rep.Impact)
		}
		for _, v := range []float64{rep.Impact, rep.Complexity, rep.BaselineAccuracy, rep.AttackedAccuracy} {
			got[m.Name()] = append(got[m.Name()], fmt.Sprintf("%016x", math.Float64bits(v)))
		}
	}

	raw, err := os.ReadFile(evasionGolden)
	if os.IsNotExist(err) {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(evasionGolden, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; recorded %d reports — review and commit", evasionGolden, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", evasionGolden, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("evasion report bits drifted\n got %v\nwant %v", got, want)
	}
}
