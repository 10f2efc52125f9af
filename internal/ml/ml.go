// Package ml implements the machine-learning substrate of the SPATIAL
// reproduction: the classifier families used by the paper's two use cases
// (logistic regression, decision tree, random forest, MLP, deep NN, and two
// gradient-boosting variants standing in for LightGBM and XGBoost),
// together with evaluation metrics and JSON model
// serialization so the micro-services can exchange trained models.
//
// All training is deterministic given a seed, CPU-only, and built purely on
// the standard library.
package ml

import (
	"errors"
	"fmt"
	"math"

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

// PredictBatch returns argmax predictions for every row of t, through the
// model's batch kernel when it has one.
func PredictBatch(c Classifier, t *dataset.Table) []int {
	return ArgmaxAll(PredictProbaAll(c, t.X))
}

// ErrInput is what every refusal of CheckInput matches under errors.Is.
var ErrInput = errors.New("ml: input does not fit the model")

type inputError string

func (e inputError) Error() string        { return string(e) }
func (e inputError) Is(target error) bool { return target == ErrInput }

// Widths is the range of row widths a classifier scores, read off it once
// by InputWidths: a model's widths never change, so a caller that checks
// many rows against one model (a serving line) keeps them rather than the
// model.
type Widths struct{ Min, Max int }

// InputWidths reports the widths c scores. MLP and LogReg know their exact
// input width; the tree families know only the widest feature they split
// on; a model that declares neither takes any width.
func InputWidths(c Classifier) Widths {
	if m, ok := c.(interface{ InputDim() int }); ok {
		return Widths{m.InputDim(), m.InputDim()}
	}
	if m, ok := c.(interface{ MinInputDim() int }); ok {
		return Widths{m.MinInputDim(), math.MaxInt}
	}
	return Widths{0, math.MaxInt}
}

// Check reports why a row of width d is outside w; the error matches
// ErrInput.
func (w Widths) Check(d int) error {
	switch {
	case w.Min == w.Max && d != w.Min:
		return inputError(fmt.Sprintf("model input dim %d != instance dim %d", w.Min, d))
	case d < w.Min:
		return inputError(fmt.Sprintf("model reads %d features, instance dim %d", w.Min, d))
	}
	return nil
}

// CheckInput reports why c cannot score rows of width d or be indexed by
// labels (InputGradient(x, y), PredictProba(x)[y]; nil when no label
// indexes the model). Scoring a row that fails this check panics or
// answers from whatever columns the model read.
func CheckInput(c Classifier, d int, labels []int) error {
	if err := InputWidths(c).Check(d); err != nil {
		return err
	}
	k := c.NumClasses()
	for i, y := range labels {
		if y < 0 || y >= k {
			return inputError(fmt.Sprintf("label %d of row %d is outside the model's %d classes", y, i, k))
		}
	}
	return nil
}
