package benchfmt

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodRun = `goos: linux
goarch: amd64
pkg: repro/internal/serving
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServingSerialForest-8   	  100098	     11993 ns/op	      24 B/op	       1 allocs/op
BenchmarkServingBatchedForest-8  	  229075	      6634 ns/op	     341 B/op	       5 allocs/op
BenchmarkServingBatchedForest-8  	  231000	      6701 ns/op	     339 B/op	       5 allocs/op
PASS
ok  	repro/internal/serving	12.3s
`

func TestParseStream(t *testing.T) {
	doc, err := ParseStream(strings.NewReader(goodRun), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("bad header: %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(doc.Benchmarks))
	}
	s := doc.Samples()
	if len(s["BenchmarkServingBatchedForest"]) != 2 {
		t.Fatalf("want 2 samples of the batched benchmark, got %d", len(s["BenchmarkServingBatchedForest"]))
	}
	// Stable sort keeps -count order within a name.
	if got := s["BenchmarkServingBatchedForest"][0].NsPerOp; got != 6634 {
		t.Fatalf("sample order not preserved: first sample %v ns/op", got)
	}
	if !doc.Benchmarks[0].HasAllocs() {
		t.Fatal("benchmem columns not detected")
	}
}

func TestParseLineWithoutBenchmem(t *testing.T) {
	r, err := ParseLine("BenchmarkNoMem-4   \t 500000 \t 2501 ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "BenchmarkNoMem" || r.Procs != 4 || r.NsPerOp != 2501 {
		t.Fatalf("bad parse: %+v", r)
	}
	if r.HasAllocs() {
		t.Fatal("line without -benchmem columns reported HasAllocs")
	}
}

func TestParseLineCustomUnits(t *testing.T) {
	r, err := ParseLine("BenchmarkRows-8  100  12.5 ns/op  3200 rows/s")
	if err != nil {
		t.Fatal(err)
	}
	if r.Extra["rows/s"] != 3200 {
		t.Fatalf("custom unit lost: %+v", r)
	}
}

func TestParseStreamRejectsMalformed(t *testing.T) {
	cases := []string{
		"BenchmarkTruncated-8   123",                   // no metric pair
		"BenchmarkOddTail-8   123   456.7 ns/op   89",  // value without unit
		"BenchmarkBadIters-8   abc   456.7 ns/op",      // iterations not a number
		"BenchmarkBadValue-8   123   fast ns/op",       // value not a number
		"goos: linux\nBenchmarkOK-8 10 5 ns/op\nFAIL",  // failed run
		"goos: linux\npkg: p\ncpu: c\nPASS\nok p 1.0s", // no benchmarks at all
	}
	for _, in := range cases {
		if _, err := ParseStream(strings.NewReader(in), io.Discard); err == nil {
			t.Errorf("input %q: want parse error, got nil", in)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	doc, err := ParseStream(strings.NewReader(goodRun), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != len(doc.Benchmarks) || got.CPU != doc.CPU {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, doc)
	}
	buf2, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(buf2) {
		t.Fatal("marshal is not deterministic across a round trip")
	}
}
