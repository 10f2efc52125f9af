package xai

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/ml"
)

// TabularLIME explains a prediction by fitting a locally weighted linear
// surrogate: Gaussian perturbations of the instance are scored by the
// model, weighted by an RBF proximity kernel, and a ridge regression over
// the perturbations yields per-feature local slopes.
type TabularLIME struct {
	// Model is the classifier to explain.
	Model ml.Classifier
	// Scale is the per-feature perturbation standard deviation.
	// Typically the training-set feature standard deviations.
	Scale []float64
	// Samples is the number of perturbations (default 1000, at most
	// MaxSamples).
	Samples int
	// Seed drives perturbation sampling.
	Seed int64
}

var _ Explainer = (*TabularLIME)(nil)

// limeLambda is the ridge regularizer of both LIME surrogates.
const limeLambda = 1e-3

// Explain returns per-feature local slopes for class probability around x.
// The final entry of the internal regression (the intercept) is dropped.
func (l *TabularLIME) Explain(x []float64, class int) ([]float64, error) {
	if l.Model == nil {
		return nil, fmt.Errorf("xai: TabularLIME has no model")
	}
	d := len(x)
	if d == 0 {
		return nil, fmt.Errorf("xai: empty instance")
	}
	if len(l.Scale) != d {
		return nil, fmt.Errorf("xai: Scale dim %d != instance dim %d", len(l.Scale), d)
	}
	if class < 0 || class >= l.Model.NumClasses() {
		return nil, fmt.Errorf("xai: class %d out of range", class)
	}
	samples := l.Samples
	if samples <= 0 {
		samples = 1000
	}
	if err := checkSamples(samples); err != nil {
		return nil, err
	}
	// RBF kernel width in normalized distance units, as in the reference
	// implementation.
	width := 0.75 * math.Sqrt(float64(d))
	rng := rand.New(rand.NewSource(l.Seed))

	// Design matrix in standardized offsets, plus an intercept column.
	design := mat.NewDense(samples, d+1)
	y := make([]float64, samples)
	w := make([]float64, samples)
	err := scoreRows(l.Model, class, d, samples, func(i int, pert []float64) {
		row := design.Row(i)
		var dist2 float64
		for j := 0; j < d; j++ {
			scale := l.Scale[j]
			if scale <= 0 {
				scale = 1e-9
			}
			off := rng.NormFloat64()
			row[j] = off
			pert[j] = x[j] + off*scale
			dist2 += off * off
		}
		row[d] = 1 // intercept
		w[i] = math.Exp(-dist2 / (width * width))
	}, func(i int, p float64) { y[i] = p })
	if err != nil {
		return nil, err
	}

	beta, err := mat.RidgeWLS(design, y, w, limeLambda)
	if err != nil {
		return nil, fmt.Errorf("lime solve: %w", err)
	}
	return beta[:d], nil
}

// ImageLIME explains an image model by superpixel masking: the W×H input
// is tiled into Patch×Patch segments, random segment subsets are set to
// zero, and a weighted ridge regression over the binary masks assigns
// each segment a contribution.
type ImageLIME struct {
	// Model is the classifier over flattened W×H inputs.
	Model ml.Classifier
	// W, H are the image dimensions; W*H must match the model input.
	W, H int
	// Patch is the superpixel side length (default 4).
	Patch int
	// Samples is the number of random masks (default 500, at most
	// MaxSamples).
	Samples int
	// Seed drives mask sampling.
	Seed int64
}

var _ Explainer = (*ImageLIME)(nil)

// Segments returns the number of superpixels for the configured geometry.
func (l *ImageLIME) Segments() int {
	patch := l.Patch
	if patch <= 0 {
		patch = 4
	}
	px := (l.W + patch - 1) / patch
	py := (l.H + patch - 1) / patch
	return px * py
}

// Explain returns one weight per superpixel (row-major over the segment
// grid) for the class probability of the flattened image x.
func (l *ImageLIME) Explain(x []float64, class int) ([]float64, error) {
	if l.Model == nil {
		return nil, fmt.Errorf("xai: ImageLIME has no model")
	}
	if l.W <= 0 || l.H <= 0 || len(x) != l.W*l.H {
		return nil, fmt.Errorf("xai: image dims %dx%d incompatible with input length %d", l.W, l.H, len(x))
	}
	patch := l.Patch
	if patch <= 0 {
		patch = 4
	}
	samples := l.Samples
	if samples <= 0 {
		samples = 500
	}
	if err := checkSamples(samples); err != nil {
		return nil, err
	}
	px := (l.W + patch - 1) / patch
	py := (l.H + patch - 1) / patch
	segs := px * py
	rng := rand.New(rand.NewSource(l.Seed))

	design := mat.NewDense(samples, segs+1)
	y := make([]float64, samples)
	w := make([]float64, samples)
	err := scoreRows(l.Model, class, len(x), samples, func(i int, masked []float64) {
		row := design.Row(i)
		on := 0
		for s := 0; s < segs; s++ {
			if rng.Float64() < 0.5 {
				row[s] = 1
				on++
			}
		}
		row[segs] = 1 // intercept
		copy(masked, x)
		for s := 0; s < segs; s++ {
			if row[s] == 1 {
				continue // segment kept
			}
			sx, sy := (s%px)*patch, (s/px)*patch
			for yy := sy; yy < sy+patch && yy < l.H; yy++ {
				for xx := sx; xx < sx+patch && xx < l.W; xx++ {
					masked[yy*l.W+xx] = 0
				}
			}
		}
		// Cosine-style proximity: masks keeping more segments are
		// closer to the original image.
		w[i] = float64(on) / float64(segs)
	}, func(i int, p float64) { y[i] = p })
	if err != nil {
		return nil, err
	}

	beta, err := mat.RidgeWLS(design, y, w, limeLambda)
	if err != nil {
		return nil, fmt.Errorf("image lime solve: %w", err)
	}
	return beta[:segs], nil
}
