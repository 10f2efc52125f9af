// Package dataset provides the tabular-data substrate used throughout the
// SPATIAL reproduction: an in-memory table of feature vectors with integer
// class labels, plus the preprocessing steps the paper's AI pipeline
// performs (cleaning, splitting, standardization, CSV interchange).
package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Table is a labelled tabular dataset. X[i] is the feature vector of sample
// i and Y[i] its class index into ClassNames. All rows have the same length
// as FeatureNames.
type Table struct {
	Name         string
	FeatureNames []string
	ClassNames   []string
	X            [][]float64
	Y            []int
}

// New returns an empty table with the given schema.
func New(name string, featureNames, classNames []string) *Table {
	return &Table{
		Name:         name,
		FeatureNames: append([]string(nil), featureNames...),
		ClassNames:   append([]string(nil), classNames...),
	}
}

// Append adds a sample. The row is copied.
func (t *Table) Append(x []float64, y int) error {
	if len(x) != len(t.FeatureNames) {
		return fmt.Errorf("dataset: row length %d != %d features", len(x), len(t.FeatureNames))
	}
	if y < 0 || y >= len(t.ClassNames) {
		return fmt.Errorf("dataset: label %d out of range [0,%d)", y, len(t.ClassNames))
	}
	t.X = append(t.X, append([]float64(nil), x...))
	t.Y = append(t.Y, y)
	return nil
}

// Len returns the number of samples.
func (t *Table) Len() int { return len(t.X) }

// NumFeatures returns the feature dimensionality.
func (t *Table) NumFeatures() int { return len(t.FeatureNames) }

// NumClasses returns the number of classes in the schema.
func (t *Table) NumClasses() int { return len(t.ClassNames) }

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := New(t.Name, t.FeatureNames, t.ClassNames)
	c.X = make([][]float64, len(t.X))
	for i, row := range t.X {
		c.X[i] = append([]float64(nil), row...)
	}
	c.Y = append([]int(nil), t.Y...)
	return c
}

// Validate checks structural invariants: matching lengths, uniform row
// width, labels in range, and finite values.
func (t *Table) Validate() error {
	if len(t.X) != len(t.Y) {
		return fmt.Errorf("dataset %q: %d rows but %d labels", t.Name, len(t.X), len(t.Y))
	}
	for i, row := range t.X {
		if len(row) != len(t.FeatureNames) {
			return fmt.Errorf("dataset %q: row %d has %d values, want %d", t.Name, i, len(row), len(t.FeatureNames))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dataset %q: non-finite value at (%d,%d)", t.Name, i, j)
			}
		}
	}
	for i, y := range t.Y {
		if y < 0 || y >= len(t.ClassNames) {
			return fmt.Errorf("dataset %q: label %d at row %d out of range", t.Name, y, i)
		}
	}
	return nil
}

// ClassCounts returns the number of samples per class.
func (t *Table) ClassCounts() []int {
	counts := make([]int, t.NumClasses())
	for _, y := range t.Y {
		counts[y]++
	}
	return counts
}

// Subset returns a new table holding copies of the rows at idx.
func (t *Table) Subset(idx []int) *Table {
	s := New(t.Name, t.FeatureNames, t.ClassNames)
	s.X = make([][]float64, 0, len(idx))
	s.Y = make([]int, 0, len(idx))
	for _, i := range idx {
		s.X = append(s.X, append([]float64(nil), t.X[i]...))
		s.Y = append(s.Y, t.Y[i])
	}
	return s
}

// Shuffle permutes the samples in place using rng.
func (t *Table) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(t.X), func(i, j int) {
		t.X[i], t.X[j] = t.X[j], t.X[i]
		t.Y[i], t.Y[j] = t.Y[j], t.Y[i]
	})
}

// Split partitions the table into the first ceil(trainFrac*n) samples and
// the remainder, without shuffling. Callers wanting a random split should
// Shuffle first or use StratifiedSplit.
func (t *Table) Split(trainFrac float64) (train, test *Table, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: trainFrac %v outside (0,1)", trainFrac)
	}
	n := t.Len()
	cut := int(math.Ceil(trainFrac * float64(n)))
	if cut >= n {
		cut = n - 1
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return t.Subset(idx[:cut]), t.Subset(idx[cut:]), nil
}

// StratifiedSplit randomly partitions the table into train/test halves
// preserving per-class proportions. Every class with at least two samples
// contributes at least one sample to each side.
func (t *Table) StratifiedSplit(rng *rand.Rand, trainFrac float64) (train, test *Table, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: trainFrac %v outside (0,1)", trainFrac)
	}
	if t.Len() == 0 {
		return nil, nil, errors.New("dataset: cannot split empty table")
	}
	byClass := make([][]int, t.NumClasses())
	for i, y := range t.Y {
		byClass[y] = append(byClass[y], i)
	}
	var trainIdx, testIdx []int
	for _, members := range byClass {
		if len(members) == 0 {
			continue
		}
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		cut := int(math.Round(trainFrac * float64(len(members))))
		if len(members) >= 2 {
			if cut == 0 {
				cut = 1
			}
			if cut == len(members) {
				cut = len(members) - 1
			}
		}
		trainIdx = append(trainIdx, members[:cut]...)
		testIdx = append(testIdx, members[cut:]...)
	}
	train, test = t.Subset(trainIdx), t.Subset(testIdx)
	train.Shuffle(rng)
	test.Shuffle(rng)
	return train, test, nil
}
