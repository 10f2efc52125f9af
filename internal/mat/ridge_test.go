package mat

import (
	"math"
	"slices"
	"testing"
)

// ridgeWLSLoop is RidgeWLS as it was written first, kept as the oracle:
// the normal equations one row at a time, skipping every product whose
// weighted factor w_i·x_i[a] is zero. It returns them beside beta.
func ridgeWLSLoop(x *Dense, y, w []float64, lambda float64) (beta []float64, xtwx *Dense, xtwy []float64, err error) {
	n, d := x.rows, x.cols
	xtwx = NewDense(d, d)
	xtwy = make([]float64, d)
	for i := 0; i < n; i++ {
		wi := w[i]
		if wi == 0 {
			continue
		}
		row := x.Row(i)
		for a := 0; a < d; a++ {
			va := wi * row[a]
			if va == 0 {
				continue
			}
			xtwy[a] += va * y[i]
			base := a * d
			for b := 0; b < d; b++ {
				xtwx.data[base+b] += va * row[b]
			}
		}
	}
	normal, normalY := xtwx.Clone(), CloneVec(xtwy)
	xtwx.AddDiag(lambda)
	beta, err = Solve(xtwx, xtwy)
	if err != nil {
		xtwx.AddDiag(1e-6 + lambda)
		beta, err = Solve(xtwx, xtwy)
	}
	return beta, normal, normalY, err
}

// ridgeValues expands data into k values, reading it cyclically: each
// byte picks ±0, a small integer, a fraction, or — with the eight bytes
// after it — any float64 bit pattern, infinities and NaNs included. No
// data gives all zeros.
func ridgeValues(data []byte, k int) []float64 {
	out := make([]float64, k)
	if len(data) == 0 {
		return out
	}
	p := 0
	next := func() byte {
		b := data[p%len(data)]
		p++
		return b
	}
	for i := range out {
		switch b := next(); b % 4 {
		case 0:
			if b&4 != 0 {
				out[i] = math.Copysign(0, -1)
			}
		case 1:
			out[i] = float64(int(b>>2) - 32)
		case 2:
			out[i] = float64(b) / 37
		case 3:
			var bits uint64
			for j := 0; j < 8; j++ {
				bits = bits<<8 | uint64(next())
			}
			out[i] = math.Float64frombits(bits)
		}
	}
	return out
}

// Fuzz flags: ridgeZeroWeights zeroes every weight, ridgeZeroColumns
// every other column of X.
const (
	ridgeZeroWeights = 1 << iota
	ridgeZeroColumns
)

// FuzzRidgeWLSMatchesLoop holds RidgeWLS to ridgeWLSLoop: where it
// answers, beta is the oracle's bit for bit; where it refuses, the
// oracle's normal equations are not finite.
func FuzzRidgeWLSMatchesLoop(f *testing.F) {
	probe := []byte{1, 6, 9, 14, 33, 0, 4, 2, 66, 130, 17, 200, 5, 10}
	for d := uint8(1); d <= 40; d++ {
		f.Add(d, uint16(3*int(d)+5), uint8(0), 1e-3, probe)
	}
	for n := uint16(1); n < 4; n++ {
		f.Add(uint8(5), n, uint8(0), 1e-6, probe)
		f.Add(uint8(5), n, uint8(ridgeZeroColumns), 0.0, probe)
	}
	f.Add(uint8(6), uint16(40), uint8(ridgeZeroWeights), 1e-3, probe)
	f.Add(uint8(7), uint16(40), uint8(ridgeZeroColumns), 1e-3, probe)
	f.Add(uint8(22), uint16(2048), uint8(0), 1e-3, probe)
	f.Add(uint8(4), uint16(30), uint8(0), 1e-3, []byte{})
	// The raw-bits class: +Inf, a NaN, and MaxFloat64 (products overflow).
	f.Add(uint8(3), uint16(9), uint8(0), 1e-3, []byte{3, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 1, 2, 9})
	f.Add(uint8(3), uint16(9), uint8(0), 1e-3, []byte{3, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0, 0, 5, 6})
	f.Add(uint8(3), uint16(9), uint8(0), 1e-3, []byte{3, 0x7f, 0xef, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 5})
	// x = [NaN 0 0], y = [-20 0 NaN], w = [0 0 -20]: a NaN on a row of
	// zero weight and a NaN response on a row whose weighted entry is −0.
	f.Add(uint8(0), uint16(2), uint8(0), 1e-3, []byte("7\x7f\xf80000000010"))
	f.Fuzz(func(t *testing.T, dIn uint8, nIn uint16, flags uint8, lambda float64, data []byte) {
		d, n := 1+int(dIn)%40, 1+int(nIn)%2100
		lambda = math.Abs(lambda)
		vals := ridgeValues(data, n*d+2*n)
		x := NewDenseData(n, d, vals[:n*d])
		y, w := vals[n*d:n*d+n], vals[n*d+n:]
		if flags&ridgeZeroWeights != 0 {
			clear(w)
		}
		if flags&ridgeZeroColumns != 0 {
			for i := 0; i < n; i++ {
				for a := 0; a < d; a += 2 {
					x.Set(i, a, 0)
				}
			}
		}
		want, xtwx, xtwy, wantErr := ridgeWLSLoop(x, y, w, lambda)
		got, err := RidgeWLS(x, y, w, lambda)
		okNormal := finite(xtwx.data) && finite(xtwy)
		switch {
		case !okNormal:
			if err == nil {
				t.Fatalf("answered %v on non-finite normal equations", got)
			}
		case (err == nil) != (wantErr == nil):
			t.Fatalf("error %v, oracle %v", err, wantErr)
		case !slices.Equal(bitsOf(got), bitsOf(want)):
			t.Fatalf("beta %v, oracle %v", got, want)
		}
	})
}

func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = math.Float64bits(f)
	}
	return out
}

// TestRidgeWLSRefusesNonFinite: a response the design weights is refused;
// one on a row whose weighted entries are all zero adds nothing, as the
// one-row loop always had it.
func TestRidgeWLSRefusesNonFinite(t *testing.T) {
	x := FromRows([][]float64{{1, 2}, {0, 0}, {3, 1}, {2, 5}, {1, 1}})
	w := []float64{1, 1, 1, 1, 1}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := RidgeWLS(x, []float64{bad, 0, 1, 2, 3}, w, 1e-3); err == nil {
			t.Errorf("y[0] = %v: no error", bad)
		}
		got, err := RidgeWLS(x, []float64{1, bad, 1, 2, 3}, w, 1e-3)
		want, _, _, _ := ridgeWLSLoop(x, []float64{1, bad, 1, 2, 3}, w, 1e-3)
		if err != nil || !slices.Equal(bitsOf(got), bitsOf(want)) {
			t.Errorf("y[1] = %v on a zero row: %v, %v; oracle %v", bad, got, err, want)
		}
	}
	if _, err := RidgeWLS(FromRows([][]float64{{1, math.Inf(-1)}}), []float64{1}, []float64{1}, 0); err == nil {
		t.Error("x with -Inf: no error")
	}
}
