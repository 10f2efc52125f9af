package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixRoundTrip copies the fix fixtures into a scratch package,
// applies every mechanical fix the analyzers propose, re-runs the suite,
// and requires the patched package to be completely clean. This is the
// contract of -fix: applying it must never leave (or introduce) a
// finding.
func TestFixRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("two module loads are slow; run without -short")
	}
	// The scratch directory lives under testdata (so the loader resolves
	// it inside the module and the corpus bypass applies every analyzer)
	// but is dot-prefixed, so ./... expansion never picks it up.
	tmp, err := os.MkdirTemp("testdata", ".fixscratch-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	fixtures, err := filepath.Glob(filepath.Join("testdata", "fix", "*.go"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no fixtures under testdata/fix: %v", err)
	}
	for _, src := range fixtures {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pattern := "./" + filepath.ToSlash(tmp)
	res, err := RunOpts(".", Options{Patterns: []string{pattern}})
	if err != nil {
		t.Fatal(err)
	}

	// Every fixable check must propose at least one edit on the fixtures.
	edited := make(map[string]bool)
	for _, f := range res.Findings {
		if len(f.Edits) > 0 {
			edited[f.Check] = true
		}
	}
	for _, check := range []string{"ctx-leak", "wall-clock", "lock-balance"} {
		if !edited[check] {
			t.Errorf("fixtures produced no fixable %s finding", check)
		}
	}

	patches, err := BuildPatches(".", res.Findings)
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) == 0 {
		t.Fatal("no patches built")
	}
	for _, p := range patches {
		if p.Skipped > 0 {
			t.Errorf("%s: %d overlapping edits skipped", p.Path, p.Skipped)
		}
		if d := p.Diff(); !strings.HasPrefix(d, "--- ") {
			t.Errorf("%s: malformed diff header:\n%s", p.Path, d)
		}
	}
	if err := WritePatches(patches); err != nil {
		t.Fatal(err)
	}

	res2, err := RunOpts(".", Options{Patterns: []string{pattern}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res2.Unsuppressed() {
		t.Errorf("finding survives -fix: %s", f.String())
	}
}

// TestSeverityGating pins the severity lattice the -fail-on flag selects
// from.
func TestSeverityGating(t *testing.T) {
	res := &Result{Findings: []Finding{
		{Check: "a", Severity: SeverityError, File: "x.go", Message: "e"},
		{Check: "b", Severity: SeverityWarn, File: "x.go", Message: "w"},
		{Check: "c", Severity: SeverityInfo, File: "x.go", Message: "i"},
	}}
	if n := len(res.Gating(SeverityInfo)); n != 3 {
		t.Errorf("fail-on=info gates %d, want 3", n)
	}
	if n := len(res.Gating(SeverityWarn)); n != 2 {
		t.Errorf("fail-on=warn gates %d, want 2", n)
	}
	if n := len(res.Gating(SeverityError)); n != 1 {
		t.Errorf("fail-on=error gates %d, want 1", n)
	}
	// Unknown severities rank as error: a typo cannot soften a check.
	if !Severity("banana").AtLeast(SeverityError) {
		t.Error("unknown severity must gate like error")
	}
}
