package scenario

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.scorecard.json from the current engine")

// TestBuiltinFaultsPartitionRequests: the fault engine decides every
// request exactly once, so its counters partition the requests, and a
// shed (the stack's answer, not the engine's) is never an injected error.
func TestBuiltinFaultsPartitionRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("builtin runs train one model per workload; skipped in -short")
	}
	for _, sc := range Builtins() {
		rec, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		f, requests := rec.Chaos, int64(len(rec.Results.Samples))
		if sum := f.Passed + f.Delayed + f.Errored + f.Reset; sum != requests {
			t.Errorf("%s: faults %+v sum to %d, want %d requests", sc.Name, f, sum, requests)
		}
		burst := false
		for _, p := range sc.Phases {
			burst = burst || (p.Fault != nil && p.Fault.Kind == FaultErrorBurst)
		}
		if !burst && f.Errored != 0 {
			t.Errorf("%s: no error-burst phase, yet %d injected errors", sc.Name, f.Errored)
		}
	}
}

// TestBuiltinScorecardsGolden pins every built-in's virtual scorecard to
// the bytes committed under testdata/ (what `spatial-scenario -smoke`
// writes). Run with -update to rewrite them after a deliberate change,
// then review the diff.
func TestBuiltinScorecardsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builtin runs train one model per workload; skipped in -short")
	}
	all := Builtins()
	for _, sc := range all {
		rec, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		got, err := Score(rec).JSON()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", sc.Name+".scorecard.json")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: scorecard differs from %s:\n%s", sc.Name, path, got)
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.scorecard.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(all) {
		t.Errorf("testdata holds %d scorecards for %d built-ins; delete the stale ones", len(files), len(all))
	}
}
