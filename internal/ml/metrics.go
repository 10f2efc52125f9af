package ml

import (
	"fmt"

	"repro/internal/dataset"
)

// Metrics bundles the evaluation measures the paper reports (accuracy,
// precision, recall and F1, macro-averaged across classes) together with
// the full confusion matrix.
type Metrics struct {
	Accuracy  float64     `json:"accuracy"`
	Precision float64     `json:"precision"` // macro-averaged
	Recall    float64     `json:"recall"`    // macro-averaged
	F1        float64     `json:"f1"`        // macro-averaged
	PerClass  []ClassStat `json:"perClass"`
	Confusion [][]int     `json:"confusion"` // [true][predicted]
	N         int         `json:"n"`
}

// ClassStat holds one-vs-rest statistics for a single class.
type ClassStat struct {
	Class     string  `json:"class"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	Support   int     `json:"support"`
}

// Evaluate scores predictions of c against the labelled table t.
func Evaluate(c Classifier, t *dataset.Table) (Metrics, error) {
	preds := PredictBatch(c, t)
	return ScorePredictions(preds, t.Y, t.ClassNames)
}

// ScorePredictions computes Metrics from parallel prediction/truth slices.
func ScorePredictions(pred, truth []int, classNames []string) (Metrics, error) {
	if len(pred) != len(truth) {
		return Metrics{}, fmt.Errorf("ml: %d predictions for %d labels", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return Metrics{}, fmt.Errorf("ml: no samples to score")
	}
	k := len(classNames)
	conf := make([][]int, k)
	for i := range conf {
		conf[i] = make([]int, k)
	}
	correct := 0
	for i, p := range pred {
		y := truth[i]
		if p < 0 || p >= k || y < 0 || y >= k {
			return Metrics{}, fmt.Errorf("ml: class index out of range at sample %d (pred %d, truth %d)", i, p, y)
		}
		conf[y][p]++
		if p == y {
			correct++
		}
	}
	m := Metrics{
		Accuracy:  float64(correct) / float64(len(pred)),
		Confusion: conf,
		N:         len(pred),
		PerClass:  make([]ClassStat, k),
	}
	var sumP, sumR, sumF float64
	for c := 0; c < k; c++ {
		tp := conf[c][c]
		fp, fn := 0, 0
		for o := 0; o < k; o++ {
			if o == c {
				continue
			}
			fp += conf[o][c]
			fn += conf[c][o]
		}
		prec := safeDiv(float64(tp), float64(tp+fp))
		rec := safeDiv(float64(tp), float64(tp+fn))
		f1 := safeDiv(2*prec*rec, prec+rec)
		m.PerClass[c] = ClassStat{
			Class:     classNames[c],
			Precision: prec,
			Recall:    rec,
			F1:        f1,
			Support:   tp + fn,
		}
		sumP += prec
		sumR += rec
		sumF += f1
	}
	m.Precision = sumP / float64(k)
	m.Recall = sumR / float64(k)
	m.F1 = sumF / float64(k)
	return m, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
