package service

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/telemetry"
)

// probeEnvelope is the explain probe's inline model: a 21→128→64→3
// network, about 230 KB serialized.
func probeEnvelope(b *testing.B) json.RawMessage {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	names := make([]string, 21)
	for j := range names {
		names[j] = "f"
	}
	tb := dataset.New("probe", names, []string{"a", "b", "c"})
	for i := 0; i < 90; i++ {
		row := make([]float64, len(names))
		for j := range row {
			row[j] = rng.NormFloat64() + float64(i%3)
		}
		if err := tb.Append(row, i%3); err != nil {
			b.Fatal(err)
		}
	}
	cfg := ml.DefaultMLPConfig()
	cfg.Epochs = 1
	m := ml.NewMLP(cfg)
	if err := m.Fit(tb); err != nil {
		b.Fatal(err)
	}
	blob, err := ml.MarshalModel(m)
	if err != nil {
		b.Fatal(err)
	}
	return blob
}

var benchModel ml.Classifier

// BenchmarkDecodeModelMiss is a cold decode: hash, unmarshal, insert.
func BenchmarkDecodeModelMiss(b *testing.B) {
	blob := probeEnvelope(b)
	svc := newBase("bench")
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.models = newModelCache(telemetry.NewRegistry())
		m, err := svc.decodeModel(blob)
		if err != nil {
			b.Fatal(err)
		}
		benchModel = m
	}
}

// BenchmarkDecodeModelHit is what every probe after the first pays: the
// hash and a lookup.
func BenchmarkDecodeModelHit(b *testing.B) {
	blob := probeEnvelope(b)
	svc := newBase("bench")
	if _, err := svc.decodeModel(blob); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := svc.decodeModel(blob)
		if err != nil {
			b.Fatal(err)
		}
		benchModel = m
	}
}
