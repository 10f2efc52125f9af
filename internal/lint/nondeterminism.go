package lint

import (
	"go/ast"
)

// AnalyzerNondeterminism flags unreproducible math/rand use inside the
// seed-critical packages (ml, mat, experiments, datagen) whose outputs
// reproduce the paper's Tables IV-VII. A fixed-seed run must produce
// bit-identical tables, so the process-global source and time-derived
// seeds break the evaluation silently. The other two nondeterminism
// sources have their own owners in the same packages: wall-clock for
// time.Now, map-order-leak for map iteration order.
var AnalyzerNondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "flags global and time-seeded math/rand use in seed-critical packages",
	AppliesTo: func(path string) bool {
		return pathHasAny(path, "internal/ml", "internal/mat", "internal/experiments", "internal/datagen")
	},
	Run: runNondeterminism,
}

func runNondeterminism(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkNondetCall(p, call)
			}
			return true
		})
	}
}

// checkNondetCall flags unseeded / time-seeded math/rand use.
func checkNondetCall(p *Pass, call *ast.CallExpr) {
	path, name, ok := p.PkgFunc(call)
	if !ok || (path != "math/rand" && path != "math/rand/v2") {
		return
	}
	switch name {
	case "New":
		// rand.New(src) is the sanctioned construction — the source
		// itself is checked when it is rand.NewSource(...).
	case "NewSource":
		if len(call.Args) == 1 && containsTimeNow(p, call.Args[0]) {
			p.Reportf(call.Pos(), "rand.NewSource seeded from time.Now(); thread an explicit seed so runs reproduce")
		}
	default:
		// Any other package-level rand call (Int, Float64, Perm,
		// Shuffle, Seed, ...) hits the shared global source whose
		// sequence depends on every other caller in the process.
		p.Reportf(call.Pos(), "math/rand.%s uses the process-global source; use a rand.New(rand.NewSource(seed)) instance instead", name)
	}
}

// containsTimeNow reports whether the expression tree contains a
// time.Now() call.
func containsTimeNow(p *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if path, name, ok := p.PkgFunc(call); ok && path == "time" && name == "Now" {
				found = true
			}
		}
		return !found
	})
	return found
}
