// Package nondeterminism is spatial-lint golden-corpus input: each
// "want" comment is a regexp some analyzer must report on that line.
// The code compiles but deliberately violates the repo's fixed-seed
// reproducibility invariants, one owner per source: nondeterminism for
// math/rand, wall-clock for time.Now, map-order-leak for map ranges.
package nondeterminism

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Stamp reads the wall clock in a seed-critical package.
func Stamp() time.Time {
	return time.Now() // want "time.Now bypasses internal/clock"
}

// Jitter draws from the process-global rand source.
func Jitter() float64 {
	return rand.Float64() // want "math/rand.Float64 uses the process-global source"
}

// TimeSeeded seeds a source from the clock: two findings on one line,
// the seed (nondeterminism) and the clock read (wall-clock).
func TimeSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "rand.NewSource seeded from time.Now" "time.Now bypasses internal/clock"
}

// Seeded is the sanctioned construction and must not be flagged.
func Seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Render leaks map iteration order into its output string.
func Render(m map[string]int) string {
	var b strings.Builder
	for k, v := range m {
		fmt.Fprintf(&b, "%s=%d;", k, v) // want "map iteration order reaches serialized output"
	}
	return b.String()
}

// RenderSorted collects then sorts, the deterministic idiom; the map
// range feeding the sort must not be flagged.
func RenderSorted(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d;", k, m[k])
	}
	return b.String()
}

// Timed shows the suppression syntax: the directive names the check and
// gives a reason, so the finding is recorded but suppressed.
func Timed(f func()) time.Duration {
	start := time.Now() //lint:ignore wall-clock wall-clock timing is reported, never seeds data
	f()
	// The line-above placement works too.
	//lint:ignore wall-clock wall-clock timing is reported, never seeds data
	end := time.Now()
	return end.Sub(start)
}
