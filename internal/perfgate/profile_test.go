package perfgate

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestBuildProfilesSelf loads the real module and checks the hot set
// contains the serving kernels with sane spans. Skipped in -short: it
// type-checks the whole module.
func TestBuildProfilesSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	modRoot, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := BuildProfiles(modRoot, ProfileOptions{
		Packages: []string{"./internal/ml", "./internal/serving", "./internal/mat"},
	})
	if err != nil {
		t.Fatal(err)
	}
	byFull := make(map[string]FuncProfile, len(profiles))
	for _, p := range profiles {
		byFull[p.Full] = p
		if p.DeclLine <= 0 || p.EndLine < p.DeclLine {
			t.Fatalf("bad span: %+v", p)
		}
		if strings.Contains(p.File, "..") || strings.HasPrefix(p.File, "/") {
			t.Fatalf("file not module-relative: %+v", p)
		}
	}

	// The batch kernels must be in the hot set, flagged per-iteration
	// work must reach the tree traversal (the one-row path's loop over
	// trees is addRows), and the kernels must have recorded data loops.
	for _, want := range []string{
		"(*repro/internal/ml.Forest).PredictProbaBatch",
		"(*repro/internal/ml.GBDT).PredictProbaBatch",
		"(*repro/internal/ml.ensemble).addRows",
	} {
		p, ok := byFull[want]
		if !ok {
			keys := make([]string, 0, len(byFull))
			for k := range byFull {
				keys = append(keys, k)
			}
			t.Fatalf("kernel %s missing from hot set; have %v", want, keys)
		}
		if len(p.Loops) == 0 {
			t.Errorf("%s: no data loops recorded", want)
		}
		if len(p.Params) == 0 {
			t.Errorf("%s: no params recorded", want)
		}
	}

	// Out-of-scope hot functions (telemetry, registry) must be excluded.
	for full := range byFull {
		p := byFull[full]
		if !strings.Contains(p.PkgPath, "internal/ml") &&
			!strings.Contains(p.PkgPath, "internal/serving") &&
			!strings.Contains(p.PkgPath, "internal/mat") {
			t.Fatalf("profile outside harvest scope: %+v", p)
		}
	}
}
