// Package graph is the fixture for the call-graph construction tests:
// interface dispatch, method values, closures, mutual recursion, and
// the may-acquire summaries. It is loaded directly by the tests and is
// not part of the golden corpus.
package graph

import "sync"

type shape interface {
	area() float64
}

type circle struct{ r float64 }

func (c circle) area() float64 { return 3 * c.r * c.r }

func (c circle) scale(f float64) float64 { return c.r * f }

type square struct{ s float64 }

func (s square) area() float64 { return s.s * s.s }

// total dispatches through the interface inside a data loop; CHA must
// produce edges to both implementations.
func total(shapes []shape) float64 {
	var t float64
	for _, s := range shapes {
		t += s.area()
	}
	return t
}

// each invokes the function value it receives.
func each(xs []float64, f func(float64) float64) float64 {
	var t float64
	for _, x := range xs {
		t += f(x)
	}
	return t
}

// useMethodValue passes a bound method as a callback.
func useMethodValue(c circle, xs []float64) float64 {
	return each(xs, c.scale)
}

// runsClosure binds a literal to a local and calls it: a static edge to
// the literal node.
func runsClosure(base float64) float64 {
	add := func(x float64) float64 { return base + x }
	return add(1)
}

// makesClosure returns an escaping literal; the builder records a
// callback edge from the enclosing function.
func makesClosure(base float64) func(float64) float64 {
	return func(x float64) float64 { return base * x }
}

// even and odd are mutually recursive: one SCC, summaries must converge.
func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

type box struct {
	mu sync.Mutex
	n  int
}

// poke acquires and releases; its summary records the may-acquire.
func (b *box) poke() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// pokesTwice reaches the lock only through poke; its summary must
// inherit the acquisition with the via chain.
func pokesTwice(b *box) {
	b.poke()
	b.poke()
}
