package xai

import (
	"fmt"

	"repro/internal/ml"
)

// Occlusion1D computes occlusion sensitivity over multi-channel time
// series — the natural explainer for use case 1's accelerometer windows,
// where the operator wants to know *when* in the window the model looked
// (the impact spike of a fall). A window of time steps is masked across
// all channels simultaneously and the class-probability drop is recorded
// per position.
type Occlusion1D struct {
	// Model is the classifier over flattened (Channels×Steps) inputs,
	// stored channel-major: input[c*Steps+t].
	Model ml.Classifier
	// Channels and Steps describe the input layout.
	Channels, Steps int
	// Window is the number of time steps masked at once (default 10).
	Window int
	// Stride is the slide step (default = Window).
	Stride int
	// Baseline is the fill value for masked samples.
	Baseline float64
}

var _ Explainer = (*Occlusion1D)(nil)

func (o *Occlusion1D) geometry() (win, stride int) {
	win = o.Window
	if win <= 0 {
		win = 10
	}
	stride = o.Stride
	if stride <= 0 {
		stride = win
	}
	return win, stride
}

// Positions returns the number of window positions Explain produces.
func (o *Occlusion1D) Positions() int {
	win, stride := o.geometry()
	if o.Steps < win {
		return 0
	}
	return (o.Steps-win)/stride + 1
}

// Explain returns one sensitivity value per window position:
// baseline probability minus the probability with that time range masked
// on every channel (positive = the range supports the class).
func (o *Occlusion1D) Explain(x []float64, class int) ([]float64, error) {
	if o.Model == nil {
		return nil, fmt.Errorf("xai: Occlusion1D has no model")
	}
	if o.Channels <= 0 || o.Steps <= 0 || len(x) != o.Channels*o.Steps {
		return nil, fmt.Errorf("xai: series %d channels x %d steps incompatible with input length %d", o.Channels, o.Steps, len(x))
	}
	if class < 0 || class >= o.Model.NumClasses() {
		return nil, fmt.Errorf("xai: class %d out of range", class)
	}
	win, stride := o.geometry()
	if o.Steps < win {
		return nil, fmt.Errorf("xai: window %d larger than %d steps", win, o.Steps)
	}
	return occlusionDrops(o.Model, class, x, o.Positions(), func(p int, masked []float64) {
		start := p * stride
		for c := 0; c < o.Channels; c++ {
			for t := start; t < start+win; t++ {
				masked[c*o.Steps+t] = o.Baseline
			}
		}
	})
}
