package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"testing"
)

const treeGoldenPath = "testdata/tree_golden.json"

// treeGoldenHashes fits the four tree families on one fixed table and
// hashes everything a change to the in-memory tree could move: the
// serialised bytes, the bytes re-marshalled after a round trip, every
// serial and batch probability bit before and after it, and the importance
// bits. It uses only what the package exports, so it reads the same on
// either side of a change to the node layout.
func treeGoldenHashes(t *testing.T) map[string]string {
	t.Helper()
	data := blobs(11, 240, 6, 3, 1.5)
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	bits := func(rows ...[]float64) string {
		var buf []byte
		for _, row := range rows {
			for _, v := range row {
				buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
		return sum(buf)
	}
	type importancer interface{ FeatureImportance(int) []float64 }

	got := make(map[string]string)
	for _, name := range []string{"dt", "rf", "lgbm", "xgb"} {
		c, err := NewByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Fit(data); err != nil {
			t.Fatal(err)
		}
		blob, err := MarshalModel(c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalModel(blob)
		if err != nil {
			t.Fatal(err)
		}
		again, err := MarshalModel(back)
		if err != nil {
			t.Fatal(err)
		}
		got[name+"/blob"] = sum(blob)
		got[name+"/reblob"] = sum(again)
		for side, m := range map[string]Classifier{"fit": c, "load": back} {
			serial := make([][]float64, data.Len())
			for i, x := range data.X {
				serial[i] = m.PredictProba(x)
			}
			got[name+"/"+side+"/serial"] = bits(serial...)
			got[name+"/"+side+"/batch"] = bits(PredictProbaAll(m, data.X)...)
			got[name+"/"+side+"/importance"] = bits(m.(importancer).FeatureImportance(data.NumFeatures()))
		}
	}
	return got
}

// TestTreeGoldenBits holds the tree families to hashes recorded at the
// commit before the in-memory node types were merged: not one serialised
// byte, probability bit or importance bit may move. Delete the golden file
// to re-record — on purpose only; a model's content id is its blob's hash.
func TestTreeGoldenBits(t *testing.T) {
	got := treeGoldenHashes(t)
	raw, err := os.ReadFile(treeGoldenPath)
	if os.IsNotExist(err) {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(treeGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; recorded %d hashes — review and commit", treeGoldenPath, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", treeGoldenPath, err)
	}
	if len(got) != len(want) {
		t.Errorf("%d hashes, golden file has %d", len(got), len(want))
	}
	for key, h := range want {
		if got[key] != h {
			t.Errorf("%s drifted: got %s, want %s", key, got[key], h)
		}
	}
}
