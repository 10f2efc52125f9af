// Package ml implements the machine-learning substrate of the SPATIAL
// reproduction: the classifier families used by the paper's two use cases
// (logistic regression, decision tree, random forest, MLP, deep NN, and two
// gradient-boosting variants standing in for LightGBM and XGBoost),
// together with evaluation metrics, cross-validation, and JSON model
// serialization so the micro-services can exchange trained models.
//
// All training is deterministic given a seed, CPU-only, and built purely on
// the standard library.
package ml

import (
	"errors"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// Classifier is a trained or trainable multi-class classifier.
type Classifier interface {
	// Fit trains the model on t, replacing any previous state.
	Fit(t *dataset.Table) error
	// PredictProba returns the class-probability distribution for x.
	// The returned slice is owned by the caller.
	PredictProba(x []float64) []float64
	// NumClasses reports the number of classes the model was trained on
	// (0 before training).
	NumClasses() int
	// Name returns a short algorithm identifier (e.g. "rf", "dnn").
	Name() string
}

// GradientClassifier is implemented by differentiable models that can
// expose the gradient of their training loss with respect to the input —
// the primitive FGSM needs.
type GradientClassifier interface {
	Classifier
	// InputGradient returns d loss(x, class) / d x, where loss is the
	// cross-entropy of the model's prediction against class.
	InputGradient(x []float64, class int) []float64
}

// ErrNotTrained is returned when a prediction is requested from an
// untrained model.
var ErrNotTrained = errors.New("ml: model is not trained")

// Predict returns the argmax class for x.
func Predict(c Classifier, x []float64) int {
	return mat.ArgMax(c.PredictProba(x))
}

// PredictBatch returns argmax predictions for every row of t.
func PredictBatch(c Classifier, t *dataset.Table) []int {
	out := make([]int, len(t.X))
	for i, x := range t.X {
		out[i] = Predict(c, x)
	}
	return out
}
