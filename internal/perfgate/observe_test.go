package perfgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// fixture: one file, one kernel function spanning lines 10-40 with a
// data loop at 20-30, and a literal nested at 32-36.
func fixtureProfiles() []FuncProfile {
	return []FuncProfile{
		{
			Full: "repro/internal/ml.Kernel", Name: "ml.Kernel",
			File: "internal/ml/kernel.go", DeclLine: 10, EndLine: 40,
			Params: []string{"m", "x"},
			Loops:  []lint.Span{{File: "internal/ml/kernel.go", StartLine: 20, EndLine: 30}},
		},
		{
			Full: "repro/internal/ml.Kernel$1", Name: "ml.Kernel$1",
			File: "internal/ml/kernel.go", DeclLine: 32, EndLine: 36,
		},
		{
			Full: "repro/internal/ml.Helper", Name: "ml.Helper",
			File: "internal/ml/kernel.go", DeclLine: 44, EndLine: 48,
			Params: []string{"v"},
		},
	}
}

func fixtureDiags() *DiagSet {
	f := "internal/ml/kernel.go"
	return &DiagSet{
		Toolchain: "go1.24.0",
		ByFile: map[string][]Diag{
			f: {
				{File: f, Line: 10, Code: CodeCannotInline, Message: "function too complex: cost 200 exceeds budget 80"},
				{File: f, Line: 12, Code: CodeLeak, Message: "parameter m leaks to ~r0 with derefs=1"}, // result leak: not an escape
				{File: f, Line: 13, Code: CodeLeak, Message: "parameter x leaks to {heap} with derefs=0"},
				// gc emits both records for one site; Observe must count one.
				{File: f, Line: 22, Col: 9, Code: CodeEscapes, Message: "make([]float64, k) escapes to heap"},
				{File: f, Line: 22, Col: 9, Code: CodeEscape},
				{File: f, Line: 25, Code: CodeIsInBounds},
				{File: f, Line: 26, Code: CodeIsInBounds},
				{File: f, Line: 34, Code: CodeEscape, Message: "acc escapes to heap"}, // inside the literal, not the kernel
				{File: f, Line: 44, Code: CodeCanInline, Message: "can inline Helper with cost 12"},
				{File: f, Line: 46, Code: CodeIsInBounds}, // outside any loop
			},
		},
	}
}

func obsByName(t *testing.T, obs []Observation, full string) Observation {
	t.Helper()
	for _, o := range obs {
		if o.Profile.Full == full {
			return o
		}
	}
	t.Fatalf("observation %q missing", full)
	return Observation{}
}

func TestObserveJoinsDiagnostics(t *testing.T) {
	obs := Observe(fixtureProfiles(), fixtureDiags())
	k := obsByName(t, obs, "repro/internal/ml.Kernel")
	if k.CanInline || !strings.Contains(k.InlineReason, "cost 200") {
		t.Fatalf("inline verdict wrong: %+v", k)
	}
	if len(k.EscapingParams) != 1 || k.EscapingParams[0] != "x" {
		t.Fatalf("want only x escaping (m leaks to result, which is fine): %v", k.EscapingParams)
	}
	if len(k.LoopAllocs) != 1 || k.LoopAllocs[0].Line != 22 {
		t.Fatalf("loop allocs wrong: %+v", k.LoopAllocs)
	}
	if len(k.LoopBounds) != 2 {
		t.Fatalf("want 2 loop bounds checks, got %+v", k.LoopBounds)
	}

	// The literal's diagnostics must not leak into the enclosing decl.
	lit := obsByName(t, obs, "repro/internal/ml.Kernel$1")
	if len(lit.LoopAllocs) != 0 || lit.FuncAllocs != 1 {
		t.Fatalf("literal attribution wrong: %+v", lit)
	}
	if k.FuncAllocs != 1 {
		t.Fatalf("kernel saw the literal's alloc: %+v", k)
	}

	h := obsByName(t, obs, "repro/internal/ml.Helper")
	if !h.CanInline {
		t.Fatalf("helper inline verdict lost: %+v", h)
	}
	if len(h.LoopBounds) != 0 || h.FuncBounds != 1 {
		t.Fatalf("loop-vs-function bounds attribution wrong: %+v", h)
	}
}

func TestGenerateCheckRoundTrip(t *testing.T) {
	obs := Observe(fixtureProfiles(), fixtureDiags())
	m := Generate(obs, "go1.24.0", nil)

	// A manifest generated from the observations must verify cleanly.
	vs := CheckManifest(m, obs, "go1.24.0")
	if Gating(vs) != 0 {
		t.Fatalf("fresh manifest should check clean, got %+v", vs)
	}

	c := m.Functions["repro/internal/ml.Kernel"]
	if c == nil || c.Inline != "any" || c.MaxLoopAllocs != 1 || c.MaxBoundsChecks != 2 {
		t.Fatalf("kernel contract wrong: %+v", c)
	}
	if len(c.NoEscapeParams) != 1 || c.NoEscapeParams[0] != "m" {
		t.Fatalf("kernel noEscapeParams wrong: %+v", c.NoEscapeParams)
	}
	if h := m.Functions["repro/internal/ml.Helper"]; h == nil || h.Inline != "must" {
		t.Fatalf("helper contract wrong: %+v", h)
	}
}

func TestCheckManifestViolations(t *testing.T) {
	obs := Observe(fixtureProfiles(), fixtureDiags())
	m := Generate(obs, "go1.24.0", nil)

	// Seed regressions: the kernel loses its alloc budget, the helper
	// loses its inline, param m starts escaping.
	bad := fixtureDiags()
	f := "internal/ml/kernel.go"
	bad.ByFile[f] = append(bad.ByFile[f],
		Diag{File: f, Line: 24, Code: CodeEscape, Message: "new([]float64) escapes to heap"},
		Diag{File: f, Line: 12, Code: CodeLeak, Message: "parameter m leaks to {heap} with derefs=0"},
	)
	for i, d := range bad.ByFile[f] {
		if d.Code == CodeCanInline && d.Line == 44 {
			bad.ByFile[f][i] = Diag{File: f, Line: 44, Code: CodeCannotInline, Message: "function too complex: cost 90 exceeds budget 80"}
		}
	}
	vs := CheckManifest(m, Observe(fixtureProfiles(), bad), "go1.24.0")
	kinds := map[string]int{}
	for _, v := range vs {
		if v.Gating {
			kinds[v.Kind]++
		}
	}
	if kinds["loop-alloc"] != 1 || kinds["param-escape"] != 1 || kinds["must-inline"] != 1 {
		t.Fatalf("want one each of loop-alloc/param-escape/must-inline, got %v (%+v)", kinds, vs)
	}
}

func TestCheckManifestMissingAndStale(t *testing.T) {
	obs := Observe(fixtureProfiles(), fixtureDiags())
	m := Generate(obs, "go1.24.0", nil)

	// Remove one contract -> missing-contract; add a phantom -> stale.
	delete(m.Functions, "repro/internal/ml.Helper")
	m.Functions["repro/internal/ml.Gone"] = &Contract{File: "internal/ml/kernel.go", Inline: "any"}
	vs := CheckManifest(m, obs, "go1.24.0")
	kinds := map[string]int{}
	for _, v := range vs {
		kinds[v.Kind]++
	}
	if kinds["missing-contract"] != 1 || kinds["stale-contract"] != 1 {
		t.Fatalf("want missing+stale, got %v", kinds)
	}
}

func TestCheckManifestToolchainDrift(t *testing.T) {
	obs := Observe(fixtureProfiles(), fixtureDiags())
	m := Generate(obs, "go1.23.0", nil)
	vs := CheckManifest(m, obs, "go1.24.0")
	sawDrift := false
	for _, v := range vs {
		if v.Kind == "toolchain" {
			sawDrift = true
			if v.Gating {
				t.Fatalf("toolchain drift must not gate: %+v", v)
			}
		}
	}
	if !sawDrift {
		t.Fatal("toolchain drift not reported")
	}

	// Under a drifted toolchain even real contract breaks are advisory:
	// a different gc release decides inlining and escapes differently,
	// so the fix is a reviewed regenerate, not a red build.
	delete(m.Functions, "repro/internal/ml.Helper")
	vs = CheckManifest(m, obs, "go1.24.0")
	if len(vs) < 2 {
		t.Fatalf("expected drift + missing-contract, got %+v", vs)
	}
	if Gating(vs) != 0 {
		t.Fatalf("violations under a drifted toolchain must not gate: %+v", vs)
	}
}

func TestManifestSaveDeterministic(t *testing.T) {
	obs := Observe(fixtureProfiles(), fixtureDiags())
	prev := &Manifest{AllocBudgets: map[string]*AllocBudget{
		"forest/serial": {Func: "repro/internal/ml.Kernel", MaxAllocsPerOp: 1},
	}}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := Generate(obs, "go1.24.0", prev).Save(p1); err != nil {
		t.Fatal(err)
	}
	if err := Generate(obs, "go1.24.0", prev).Save(p2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if string(b1) != string(b2) {
		t.Fatal("repeated generation is not byte-identical")
	}

	// Round trip through Load preserves the budgets section.
	m, err := LoadManifest(p1)
	if err != nil {
		t.Fatal(err)
	}
	if m.AllocBudgets["forest/serial"] == nil || m.AllocBudgets["forest/serial"].MaxAllocsPerOp != 1 {
		t.Fatalf("alloc budgets lost: %+v", m.AllocBudgets)
	}
}
