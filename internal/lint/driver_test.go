package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestTypeCheckOncePerPackage loads the whole module — root directories
// in parallel over the shared cache — and asserts no package was
// type-checked more than once. Without the cache's wait-on-in-flight
// entries, a popular dependency (telemetry, clock) would be re-checked
// by every importer and full-repo runs would be quadratic-ish.
func TestTypeCheckOncePerPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; run without -short")
	}
	loader, pkgs := loadModule(t)
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	// Load has returned, so no goroutine is writing the map any more.
	counts := loader.checks
	if len(counts) == 0 {
		t.Fatal("no type-checks recorded")
	}
	for key, n := range counts {
		if n > 1 {
			t.Errorf("package %s type-checked %d times, want 1", key, n)
		}
	}
	// Spot-check that shared dependencies were actually demanded.
	for _, dep := range []string{"repro/internal/telemetry", "repro/internal/clock"} {
		if counts[dep] != 1 {
			t.Errorf("dependency %s checked %d times, want exactly 1", dep, counts[dep])
		}
	}
}

// TestLoadsExternalTestPackages pins the satellite fix: the repo root
// holds only an external benchmark package (bench_ext_test.go, package
// repro), which the loader used to skip entirely.
func TestLoadsExternalTestPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; run without -short")
	}
	_, pkgs := loadModule(t)
	var sawRootBench, sawInPackageTest bool
	for _, p := range pkgs {
		if p.Path == "repro" && p.IsTest {
			sawRootBench = true
		}
		if p.IsTest && strings.HasPrefix(p.Path, "repro/internal/") {
			sawInPackageTest = true
		}
	}
	if !sawRootBench {
		t.Error("root external benchmark package (repro, test) not loaded")
	}
	if !sawInPackageTest {
		t.Error("no in-package test packages loaded under repro/internal")
	}
}

// BenchmarkFullRepoRun measures the parallel driver end to end: load,
// type-check, and analyze the whole module with all analyzers.
func BenchmarkFullRepoRun(b *testing.B) {
	root, err := moduleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunOpts(root, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeOnly isolates the analysis half: one load, then
// repeated analyzer passes over the cached packages.
func BenchmarkAnalyzeOnly(b *testing.B) {
	loader, pkgs := loadModule(b)
	analyzers := Analyzers()
	prog := buildProgram(loader.Fset(), pkgs)
	prog.EnsureSummaries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkg := range pkgs {
			analyzePackage(loader, pkg, analyzers, true, prog, nil)
		}
	}
}

// TestRepeatedRunsByteIdentical pins emission determinism end to end:
// two independent loads and runs over the corpus (the shared load and a
// fresh one) must serialize to the same bytes, JSON and SARIF both.
// Parallel package analysis, map-keyed caches, and analyzer
// registration order all feed this — any of them leaking iteration
// order shows up here as a diff.
func TestRepeatedRunsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("a second corpus load is slow; run without -short")
	}
	emit := func(loader *Loader, pkgs []*Package) (jsonBytes, sarifBytes []byte) {
		t.Helper()
		res, err := Analyze(loader, pkgs, nil)
		if err != nil {
			t.Fatal(err)
		}
		jsonBytes, err = json.MarshalIndent(res.Findings, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteSARIF(&buf); err != nil {
			t.Fatal(err)
		}
		return jsonBytes, buf.Bytes()
	}
	j1, s1 := emit(loadCorpus(t))
	fresh := &Loader{Dir: ".", Tests: true}
	freshPkgs, err := fresh.Load([]string{"./testdata/src/..."})
	if err != nil {
		t.Fatal(err)
	}
	j2, s2 := emit(fresh, freshPkgs)
	if !bytes.Equal(j1, j2) {
		t.Error("JSON output differs between identical runs")
	}
	if !bytes.Equal(s1, s2) {
		t.Error("SARIF output differs between identical runs")
	}
}

// TestSeverityGating: every unsuppressed finding gates, whatever its
// severity; a waived one does not.
func TestSeverityGating(t *testing.T) {
	res := &Result{Findings: []Finding{
		{Check: "a", Severity: SeverityError, File: "x.go", Message: "e"},
		{Check: "b", Severity: SeverityWarn, File: "x.go", Message: "w"},
		{Check: "c", Severity: SeverityError, File: "x.go", Message: "s", Suppressed: true},
	}}
	got := res.Gating()
	if len(got) != 2 || got[0].Check != "a" || got[1].Check != "b" {
		t.Errorf("gating %v, want the error and the warn finding", got)
	}
}
