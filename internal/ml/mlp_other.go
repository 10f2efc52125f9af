//go:build !amd64

package ml

// hasAVX is false off amd64: neuronTile scores every neuron and axpyGo
// does every axpy.
const hasAVX = false

// kernel4x4AVX exists off amd64 only so that layerTile compiles; hasAVX is
// a false constant here, so nothing calls it.
func kernel4x4AVX(w, t []float64, b *[4]float64, o *[16]float64, slope float64) {
	panic("ml: kernel4x4AVX called off amd64")
}

// axpyAVX, likewise, only lets axpy compile.
func axpyAVX(y, x []float64, a float64) {
	panic("ml: axpyAVX called off amd64")
}
