package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
)

// Shape classes of the synthetic image dataset used for the image-XAI
// workloads (occlusion sensitivity, image LIME, and the fig-8d heavy-load
// experiment).
const (
	ShapeBox   = "box"
	ShapeCross = "cross"
	ShapeDisc  = "disc"
)

// ShapesConfig parameterizes the image generator.
type ShapesConfig struct {
	// Samples is the total number of images.
	Samples int
	// Size is the square image side length (default 24).
	Size int
	// Seed drives all randomness.
	Seed int64
}

// shapesNoiseStd is the additive pixel noise.
const shapesNoiseStd = 0.1

// Shapes generates flattened grayscale images of a box outline, a cross,
// or a filled disc at jittered positions and scales. Pixel values are in
// [0, 1] plus noise; features are row-major "px_y_x".
func Shapes(cfg ShapesConfig) (*dataset.Table, error) {
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("datagen: Samples must be positive, got %d", cfg.Samples)
	}
	if cfg.Size <= 7 {
		cfg.Size = 24
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	size := cfg.Size

	names := make([]string, 0, size*size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			names = append(names, fmt.Sprintf("px_%02d_%02d", y, x))
		}
	}
	t := dataset.New("shapes-synthetic", names, []string{ShapeBox, ShapeCross, ShapeDisc})

	for i := 0; i < cfg.Samples; i++ {
		class := i % 3
		img := make([]float64, size*size)
		cx := size/2 + rng.Intn(5) - 2
		cy := size/2 + rng.Intn(5) - 2
		r := size/4 + rng.Intn(3) - 1
		switch class {
		case 0:
			drawBox(img, size, cx, cy, r)
		case 1:
			drawCross(img, size, cx, cy, r)
		case 2:
			drawDisc(img, size, cx, cy, r)
		}
		for p := range img {
			img[p] += rng.NormFloat64() * shapesNoiseStd
		}
		if err := t.Append(img, class); err != nil {
			return nil, err
		}
	}
	t.Shuffle(rng)
	return t, nil
}

func setPx(img []float64, size, x, y int, v float64) {
	if x >= 0 && x < size && y >= 0 && y < size {
		img[y*size+x] = v
	}
}

func drawBox(img []float64, size, cx, cy, r int) {
	for d := -r; d <= r; d++ {
		setPx(img, size, cx+d, cy-r, 1)
		setPx(img, size, cx+d, cy+r, 1)
		setPx(img, size, cx-r, cy+d, 1)
		setPx(img, size, cx+r, cy+d, 1)
	}
}

func drawCross(img []float64, size, cx, cy, r int) {
	for d := -r; d <= r; d++ {
		setPx(img, size, cx+d, cy, 1)
		setPx(img, size, cx, cy+d, 1)
	}
}

func drawDisc(img []float64, size, cx, cy, r int) {
	for y := cy - r; y <= cy+r; y++ {
		for x := cx - r; x <= cx+r; x++ {
			dx, dy := float64(x-cx), float64(y-cy)
			if math.Sqrt(dx*dx+dy*dy) <= float64(r) {
				setPx(img, size, x, y, 1)
			}
		}
	}
}
