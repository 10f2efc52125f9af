package xai

import (
	"fmt"

	"repro/internal/ml"
)

// Occlusion computes occlusion-sensitivity maps: a baseline-filled window
// slides over the image and the drop in class probability at each position
// measures how much the model relies on that region.
type Occlusion struct {
	// Model is the classifier over flattened W×H inputs.
	Model ml.Classifier
	// W, H are the image dimensions.
	W, H int
	// Window is the occluder side length (default 4).
	Window int
	// Stride is the slide step (default = Window).
	Stride int
	// Baseline is the fill value for the occluded window.
	Baseline float64
}

// HeatmapSize returns the (cols, rows) of the sensitivity map produced by
// Explain.
func (o *Occlusion) HeatmapSize() (cols, rows int) {
	win, stride := o.geometry()
	if o.W < win || o.H < win {
		return 0, 0
	}
	return (o.W-win)/stride + 1, (o.H-win)/stride + 1
}

func (o *Occlusion) geometry() (win, stride int) {
	win = o.Window
	if win <= 0 {
		win = 4
	}
	stride = o.Stride
	if stride <= 0 {
		stride = win
	}
	return win, stride
}

// Explain returns the row-major sensitivity map: for each window position,
// baselineProb − occludedProb (positive = the region supports the class).
func (o *Occlusion) Explain(x []float64, class int) ([]float64, error) {
	if o.Model == nil {
		return nil, fmt.Errorf("xai: Occlusion has no model")
	}
	if o.W <= 0 || o.H <= 0 || len(x) != o.W*o.H {
		return nil, fmt.Errorf("xai: image dims %dx%d incompatible with input length %d", o.W, o.H, len(x))
	}
	if class < 0 || class >= o.Model.NumClasses() {
		return nil, fmt.Errorf("xai: class %d out of range", class)
	}
	win, stride := o.geometry()
	if o.W < win || o.H < win {
		return nil, fmt.Errorf("xai: window %d larger than image %dx%d", win, o.W, o.H)
	}
	cols, rows := o.HeatmapSize()
	out := make([]float64, cols*rows)
	// Row 0 is x itself; row 1+p is x with window position p occluded.
	var base float64
	err := scoreRows(o.Model, class, len(x), 1+len(out),
		func(i int, row []float64) {
			copy(row, x)
			if i == 0 {
				return
			}
			p := i - 1
			ox, oy := p%cols*stride, p/cols*stride
			for yy := oy; yy < oy+win; yy++ {
				for xx := ox; xx < ox+win; xx++ {
					row[yy*o.W+xx] = o.Baseline
				}
			}
		},
		func(i int, p float64) {
			if i == 0 {
				base = p
				return
			}
			out[i-1] = base - p
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

var _ Explainer = (*Occlusion)(nil)
