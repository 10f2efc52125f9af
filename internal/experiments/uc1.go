package experiments

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/ml"
	"repro/internal/xai"
)

// UC1BaselineResult reproduces the §VII baseline sentence: "LR (73%), DNN
// (97%), RF (97%), DT (90%), and MLP (97%)".
type UC1BaselineResult struct {
	Scores []ModelScore `json:"scores"`
}

// UC1Baseline trains the five use-case-1 models on clean data.
func UC1Baseline(cfg Config) (UC1BaselineResult, error) {
	train, test, err := uc1Data(cfg)
	if err != nil {
		return UC1BaselineResult{}, err
	}
	var res UC1BaselineResult
	for _, algo := range uc1Models {
		model, _, stest, _, err := trainModel(algo, train, test, cfg.seed())
		if err != nil {
			return UC1BaselineResult{}, err
		}
		m, err := ml.Evaluate(model, stest)
		if err != nil {
			return UC1BaselineResult{}, err
		}
		res.Scores = append(res.Scores, scoreOf(algo, m))
	}
	printScores(cfg.out(), "UC1 baseline (paper: LR 73%, DNN 97%, RF 97%, DT 90%, MLP 97%)", res.Scores)
	return res, nil
}

// Fig6Point is one point of the Fig. 6(a) sweep.
type Fig6Point struct {
	Model     string  `json:"model"`
	Rate      float64 `json:"rate"`
	Accuracy  float64 `json:"accuracy"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
}

// Fig6Result holds the label-flip degradation sweep for all five models.
type Fig6Result struct {
	Points []Fig6Point `json:"points"`
}

// Fig6 reproduces Fig. 6(a) i-iii: accuracy, precision and recall of the
// five models as the training labels are randomly flipped at increasing
// rates; evaluation is always on the clean test split.
func Fig6(cfg Config) (Fig6Result, error) {
	train, test, err := uc1Data(cfg)
	if err != nil {
		return Fig6Result{}, err
	}
	var res Fig6Result
	for _, algo := range uc1Models {
		for _, rate := range cfg.poisonRates() {
			poisoned, err := attack.LabelFlip(train, rate, cfg.seed()+int64(rate*1000))
			if err != nil {
				return Fig6Result{}, err
			}
			model, _, stest, _, err := trainModel(algo, poisoned, test, cfg.seed())
			if err != nil {
				return Fig6Result{}, err
			}
			m, err := ml.Evaluate(model, stest)
			if err != nil {
				return Fig6Result{}, err
			}
			res.Points = append(res.Points, Fig6Point{
				Model:     algo,
				Rate:      rate,
				Accuracy:  m.Accuracy,
				Precision: m.Precision,
				Recall:    m.Recall,
			})
		}
	}
	printFig6(cfg, res)
	return res, nil
}

func printFig6(cfg Config, res Fig6Result) {
	w := cfg.out()
	fmt.Fprintf(w, "\nFig 6(a): label flipping vs model performance (clean test set)\n")
	fmt.Fprintf(w, "%-6s", "model")
	for _, r := range cfg.poisonRates() {
		fmt.Fprintf(w, " %5.0f%%", r*100)
	}
	fmt.Fprintln(w)
	for _, metric := range []string{"acc", "prec", "rec"} {
		fmt.Fprintf(w, "-- %s --\n", metric)
		for _, algo := range uc1Models {
			fmt.Fprintf(w, "%-6s", algo)
			for _, p := range res.Points {
				if p.Model != algo {
					continue
				}
				v := p.Accuracy
				switch metric {
				case "prec":
					v = p.Precision
				case "rec":
					v = p.Recall
				}
				fmt.Fprintf(w, " %5.1f%%", v*100)
			}
			fmt.Fprintln(w)
		}
	}
}

// DissimPoint is one point of Fig. 6(a)-iv.
type DissimPoint struct {
	Rate          float64 `json:"rate"`
	Dissimilarity float64 `json:"dissimilarity"`
}

// Fig6SHAPResult holds the SHAP-dissimilarity poisoning indicator sweep.
type Fig6SHAPResult struct {
	Points []DissimPoint `json:"points"`
}

// Fig6SHAP reproduces Fig. 6(a)-iv: the DNN is retrained at each poisoning
// rate, SHAP explanations are computed for fall instances of the clean
// test set, and the mean explanation distance between feature-space
// neighbours (k=5) is reported. The paper's claim: the metric rises with
// the poisoning rate.
func Fig6SHAP(cfg Config) (Fig6SHAPResult, error) {
	train, test, err := uc1Data(cfg)
	if err != nil {
		return Fig6SHAPResult{}, err
	}
	samples, background, maxInstances := cfg.shapBudget()
	rates := cfg.poisonRates()

	var res Fig6SHAPResult
	for _, rate := range rates {
		poisoned, err := attack.LabelFlip(train, rate, cfg.seed()+int64(rate*1000))
		if err != nil {
			return Fig6SHAPResult{}, err
		}
		model, strain, stest, _, err := trainModel("dnn", poisoned, test, cfg.seed())
		if err != nil {
			return Fig6SHAPResult{}, err
		}

		// Fall instances from the clean (standardized) test set.
		var falls [][]float64
		for i, y := range stest.Y {
			if y == 1 {
				falls = append(falls, stest.X[i])
			}
			if len(falls) >= maxInstances {
				break
			}
		}
		if len(falls) < 2 {
			return Fig6SHAPResult{}, fmt.Errorf("fig6-shap: only %d fall instances in test set", len(falls))
		}
		explainer := &xai.KernelSHAP{
			Model:      model,
			Background: strain.X[:background],
			Samples:    samples,
			Seed:       cfg.seed(),
		}
		explanations := make([][]float64, len(falls))
		for i, x := range falls {
			e, err := explainer.Explain(x, 1)
			if err != nil {
				return Fig6SHAPResult{}, fmt.Errorf("fig6-shap explain: %w", err)
			}
			explanations[i] = e
		}
		d, err := xai.Dissimilarity(falls, explanations, 5)
		if err != nil {
			return Fig6SHAPResult{}, err
		}
		res.Points = append(res.Points, DissimPoint{Rate: rate, Dissimilarity: d})
	}

	w := cfg.out()
	fmt.Fprintf(w, "\nFig 6(a)-iv: SHAP dissimilarity of similar fall instances vs poisoning rate\n")
	fmt.Fprintf(w, "%6s  %s\n", "rate", "dissimilarity")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%5.0f%%  %.4f\n", p.Rate*100, p.Dissimilarity)
	}
	return res, nil
}
