package ml

// hasAVX reports whether kernel4x4AVX and axpyAVX may run: the CPU has AVX
// and the OS saves the YMM registers across context switches. It is read
// once, here.
var hasAVX = avxUsable()

// kernel4x4AVX is the tile kernel on 256-bit vectors (mlp_amd64.s): w holds
// four weight rows of n = len(t)/4 back to back, and o[4k+l] is neuron k's
// sum on lane l, b[k] plus w[kn+c]·t[4c+l] for c ascending, times slope if
// the sum is below zero. It checks no bounds: len(w) and len(t) must both
// be 4n.
//
//go:noescape
func kernel4x4AVX(w, t []float64, b *[4]float64, o *[16]float64, slope float64)

// axpyAVX is axpy on 256-bit vectors (mlp_amd64.s). It checks no bounds:
// x must be at least as long as y.
//
//go:noescape
func axpyAVX(y, x []float64, a float64)

// cpuid1ECX returns ECX of CPUID leaf 1; xgetbv0 the low word of XCR0.
func cpuid1ECX() uint32
func xgetbv0() uint32

func avxUsable() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmm, ymm = 1 << 1, 1 << 2 // XCR0 state components enabled by the OS
	return xgetbv0()&(xmm|ymm) == xmm|ymm
}
