package attack

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// gmmSynthesizer is the stand-in for the paper's CTGAN-based poisoning
// generator: a per-class Gaussian mixture fitted to the training data
// generates samples that are near the data manifold but smooth away the
// decision-relevant detail. See DESIGN.md §3 for the substitution
// rationale.
type gmmSynthesizer struct {
	// seed drives fitting.
	seed int64

	classes  int
	dim      int
	mixtures [][]gmmComponent // per class
}

const (
	// gmmComponents is the number of mixture components per class.
	gmmComponents = 3
	// kMeansIters bounds the clustering iterations.
	kMeansIters = 10
	// stdScale shrinks the fitted per-feature standard deviations when
	// sampling. Below 1 it concentrates synthetic samples on the data
	// manifold, which is what makes mislabeled synthetic poison collide
	// with real samples.
	stdScale = 0.5
)

type gmmComponent struct {
	weight float64
	mean   []float64
	std    []float64
}

// Fit estimates the per-class mixtures from t.
func (g *gmmSynthesizer) Fit(t *dataset.Table) error {
	if t.Len() == 0 {
		return fmt.Errorf("attack: synthesizer fit on empty dataset")
	}
	g.classes = t.NumClasses()
	g.dim = t.NumFeatures()
	g.mixtures = make([][]gmmComponent, g.classes)
	rng := rand.New(rand.NewSource(g.seed))

	for c := 0; c < g.classes; c++ {
		var rows [][]float64
		for i, y := range t.Y {
			if y == c {
				rows = append(rows, t.X[i])
			}
		}
		if len(rows) == 0 {
			continue
		}
		k := gmmComponents
		if k > len(rows) {
			k = len(rows)
		}
		assign := kMeans(rng, rows, k, kMeansIters)
		comps := make([]gmmComponent, 0, k)
		for cl := 0; cl < k; cl++ {
			var members [][]float64
			for i, a := range assign {
				if a == cl {
					members = append(members, rows[i])
				}
			}
			if len(members) == 0 {
				continue
			}
			comp := gmmComponent{
				weight: float64(len(members)) / float64(len(rows)),
				mean:   make([]float64, g.dim),
				std:    make([]float64, g.dim),
			}
			for _, r := range members {
				for j, v := range r {
					comp.mean[j] += v
				}
			}
			for j := range comp.mean {
				comp.mean[j] /= float64(len(members))
			}
			for _, r := range members {
				for j, v := range r {
					d := v - comp.mean[j]
					comp.std[j] += d * d
				}
			}
			for j := range comp.std {
				comp.std[j] = math.Sqrt(comp.std[j] / float64(len(members)))
			}
			comps = append(comps, comp)
		}
		g.mixtures[c] = comps
	}
	return nil
}

// Sample draws n synthetic rows for class c.
func (g *gmmSynthesizer) Sample(c, n int, seed int64) ([][]float64, error) {
	if g.mixtures == nil {
		return nil, fmt.Errorf("attack: synthesizer not fitted")
	}
	if c < 0 || c >= g.classes {
		return nil, fmt.Errorf("attack: class %d out of range", c)
	}
	comps := g.mixtures[c]
	if len(comps) == 0 {
		return nil, fmt.Errorf("attack: class %d has no fitted components", c)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		comp := pickComponent(rng, comps)
		row := make([]float64, g.dim)
		for j := range row {
			row[j] = comp.mean[j] + rng.NormFloat64()*comp.std[j]*stdScale
		}
		out[i] = row
	}
	return out, nil
}

func pickComponent(rng *rand.Rand, comps []gmmComponent) gmmComponent {
	r := rng.Float64()
	acc := 0.0
	for _, c := range comps {
		acc += c.weight
		if r <= acc {
			return c
		}
	}
	return comps[len(comps)-1]
}

// kMeans clusters rows into k groups with k-means++ seeding and returns
// per-row assignments.
func kMeans(rng *rand.Rand, rows [][]float64, k, iters int) []int {
	n := len(rows)
	centers := make([][]float64, 0, k)
	centers = append(centers, mat.CloneVec(rows[rng.Intn(n)]))
	for len(centers) < k {
		// k-means++: sample proportional to squared distance to the
		// nearest existing center.
		d2 := make([]float64, n)
		var total float64
		for i, r := range rows {
			best := math.Inf(1)
			for _, c := range centers {
				if d := mat.Dist2(r, c); d*d < best {
					best = d * d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			centers = append(centers, mat.CloneVec(rows[rng.Intn(n)]))
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i, d := range d2 {
			acc += d
			if acc >= r {
				pick = i
				break
			}
		}
		centers = append(centers, mat.CloneVec(rows[pick]))
	}

	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i, r := range rows {
			best, bi := math.Inf(1), 0
			for ci, c := range centers {
				if d := mat.Dist2(r, c); d < best {
					best, bi = d, ci
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		if !changed {
			break
		}
		counts := make([]int, k)
		for ci := range centers {
			for j := range centers[ci] {
				centers[ci][j] = 0
			}
		}
		for i, r := range rows {
			counts[assign[i]]++
			for j, v := range r {
				centers[assign[i]][j] += v
			}
		}
		for ci := range centers {
			if counts[ci] == 0 {
				centers[ci] = mat.CloneVec(rows[rng.Intn(n)])
				continue
			}
			for j := range centers[ci] {
				centers[ci][j] /= float64(counts[ci])
			}
		}
	}
	return assign
}

// PoisonSynthetic implements the GAN-style poisoning attack: it fits the
// synthesizer on t, generates count synthetic rows whose class labels are
// drawn from the class marginal, mislabels a fraction of them, and returns
// t plus the poison appended. mislabel in [0,1] is the fraction of
// synthetic samples given a deliberately wrong label.
func PoisonSynthetic(t *dataset.Table, count int, mislabel float64, seed int64) (*dataset.Table, error) {
	if count < 0 {
		return nil, fmt.Errorf("attack: negative synthetic count %d", count)
	}
	if err := validateRate(mislabel); err != nil {
		return nil, err
	}
	synth := &gmmSynthesizer{seed: seed}
	if err := synth.Fit(t); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	counts := t.ClassCounts()
	out := t.Clone()
	for i := 0; i < count; i++ {
		c := sampleClass(rng, counts)
		rows, err := synth.Sample(c, 1, seed+int64(i)*31)
		if err != nil {
			return nil, err
		}
		label := c
		if rng.Float64() < mislabel && t.NumClasses() > 1 {
			label = rng.Intn(t.NumClasses() - 1)
			if label >= c {
				label++
			}
		}
		if err := out.Append(rows[0], label); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sampleClass(rng *rand.Rand, counts []int) int {
	total := 0
	for _, c := range counts {
		total += c
	}
	r := rng.Intn(total)
	acc := 0
	for c, n := range counts {
		acc += n
		if r < acc {
			return c
		}
	}
	return len(counts) - 1
}
