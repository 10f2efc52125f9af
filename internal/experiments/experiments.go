// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI-§VII): the use-case-1 poisoning study (Fig. 6), the
// use-case-2 evasion/poisoning study (Fig. 7), and the capacity-load study
// (Fig. 8). Each experiment returns structured results and can print the
// same rows/series the paper reports. cmd/spatial-experiments is the CLI entry
// point; bench_test.go wraps the same code in testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/ml"
)

// Config scales the experiments. Zero values select the full-size runs the
// EXPERIMENTS.md numbers were produced with; Quick selects reduced sizes
// for benchmarks and smoke tests.
type Config struct {
	// Quick reduces dataset sizes, sweep points and XAI budgets so a
	// full pass fits in a benchmark iteration.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Out receives human-readable tables; nil discards them.
	Out io.Writer
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// uniMiBSamples returns the UC1 dataset size.
func (c Config) uniMiBSamples() int {
	if c.Quick {
		return 700
	}
	return 2400
}

// poisonRates returns the label-flip sweep of Fig. 6.
func (c Config) poisonRates() []float64 {
	if c.Quick {
		return []float64{0, 0.10, 0.30, 0.50}
	}
	return []float64{0, 0.01, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50}
}

// uc2PoisonRates returns the poisoning sweep of Fig. 7(c,d).
func (c Config) uc2PoisonRates() []float64 {
	if c.Quick {
		return []float64{0, 0.20, 0.50}
	}
	return []float64{0, 0.10, 0.20, 0.30, 0.40, 0.50}
}

// shapBudget returns (coalition samples, background rows, max instances)
// for the SHAP-dissimilarity experiment.
func (c Config) shapBudget() (samples, background, maxInstances int) {
	if c.Quick {
		return 128, 4, 10
	}
	return 384, 6, 24
}

// uc1Models are the five use-case-1 model families, in the paper's order.
var uc1Models = []string{"lr", "dnn", "rf", "dt", "mlp"}

// uc2Models are the three use-case-2 model families. "nn" is the paper's
// name for the neural network; it resolves to the MLP implementation.
var uc2Models = []string{"nn", "lgbm", "xgb"}

// needsScaling reports whether an algorithm trains on standardized
// features (gradient-based models).
func needsScaling(algo string) bool {
	switch algo {
	case "lr", "mlp", "dnn", "nn":
		return true
	}
	return false
}

// uc1Data builds the binary fall-detection task with a stratified 80/20
// split.
func uc1Data(cfg Config) (train, test *dataset.Table, err error) {
	tb, err := datagen.UniMiBBinary(datagen.UniMiBConfig{Samples: cfg.uniMiBSamples(), Seed: cfg.seed()})
	if err != nil {
		return nil, nil, fmt.Errorf("uc1 data: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.seed()))
	return tb.StratifiedSplit(rng, 0.8)
}

// uc2Data builds the network-activity task. The split fraction reproduces
// the paper's 103-sample test set. All use-case-2 models train on min-max
// normalized features: the neural network needs the scaling, the tree
// ensembles are invariant to the monotone transform, and the shared
// representation is what lets adversarial samples crafted on the NN
// transfer to the other models (the paper's setup).
func uc2Data(cfg Config) (train, test *dataset.Table, scaler *dataset.MinMaxScaler, err error) {
	netCfg := datagen.DefaultNetTrafficConfig()
	netCfg.Seed = cfg.seed()
	if cfg.Quick {
		netCfg.Web, netCfg.Interactive, netCfg.Video = 120, 14, 18
	}
	tb, _, err := datagen.NetTraffic(netCfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("uc2 data: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.seed()))
	train, test, err = tb.StratifiedSplit(rng, 0.73)
	if err != nil {
		return nil, nil, nil, err
	}
	scaler, err = dataset.FitMinMax(train)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := scaler.Transform(train); err != nil {
		return nil, nil, nil, err
	}
	if err := scaler.Transform(test); err != nil {
		return nil, nil, nil, err
	}
	return train, test, scaler, nil
}

// fitByName trains a fresh model of the named algorithm.
func fitByName(algo string, train *dataset.Table, seed int64) (ml.Classifier, error) {
	model, err := ml.NewByName(algo, seed)
	if err != nil {
		return nil, err
	}
	if err := model.Fit(train); err != nil {
		return nil, fmt.Errorf("fit %s: %w", algo, err)
	}
	return model, nil
}

// trainModel fits algorithm algo on train, standardizing features when the
// model needs it. It returns the model, the (possibly standardized) train
// and test tables, and the scaler used (nil when none).
func trainModel(algo string, train, test *dataset.Table, seed int64) (ml.Classifier, *dataset.Table, *dataset.Table, *dataset.Scaler, error) {
	model, err := ml.NewByName(algo, seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var scaler *dataset.Scaler
	if needsScaling(algo) {
		scaler, err = dataset.FitScaler(train)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		train = train.Clone()
		test = test.Clone()
		if err := scaler.Transform(train); err != nil {
			return nil, nil, nil, nil, err
		}
		if err := scaler.Transform(test); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	if err := model.Fit(train); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("fit %s: %w", algo, err)
	}
	return model, train, test, scaler, nil
}

// ModelScore is one row of a baseline table.
type ModelScore struct {
	Model     string  `json:"model"`
	Accuracy  float64 `json:"accuracy"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

func scoreOf(model string, m ml.Metrics) ModelScore {
	return ModelScore{Model: model, Accuracy: m.Accuracy, Precision: m.Precision, Recall: m.Recall, F1: m.F1}
}

func printScores(w io.Writer, title string, scores []ModelScore) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-6s %9s %10s %8s %8s\n", "model", "accuracy", "precision", "recall", "f1")
	for _, s := range scores {
		fmt.Fprintf(w, "%-6s %8.1f%% %9.1f%% %7.1f%% %7.1f%%\n",
			s.Model, s.Accuracy*100, s.Precision*100, s.Recall*100, s.F1*100)
	}
}
