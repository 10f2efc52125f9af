package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerMapOrderLeak protects the byte-identical artifacts of the
// repo — scenario scorecards, cluster status JSON, perfgate reports,
// telemetry snapshots, and the fixed-seed tables of the seed-critical
// numeric packages — from map iteration order. It flags ranging over a
// map where the iteration can reach serialized output: a direct
// print/write/encode in the range body, or an append into a variable
// that the function never sorts afterwards. The exemption is
// per-variable (the appended slice itself must be sorted), which
// catches the "sorted the keys, serialized the values" near-miss.
var AnalyzerMapOrderLeak = &Analyzer{
	Name:     "map-order-leak",
	Doc:      "flags map iteration whose order can reach serialized output in artifact-writing and seed-critical packages",
	Severity: SeverityError,
	AppliesTo: func(path string) bool {
		return pathHasAny(path, "internal/scenario", "internal/cluster", "internal/serving",
			"internal/perfgate", "internal/gateway", "internal/telemetry",
			"internal/audit", "internal/dashboard",
			"internal/ml", "internal/mat", "internal/experiments", "internal/datagen")
	},
	Run: runMapOrderLeak,
}

func runMapOrderLeak(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkMapOrderLeaks(p, fn)
			return true
		})
	}
}

func checkMapOrderLeaks(p *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.TypeOf(rng.X)
		if t == nil || !isMapType(t) {
			return true
		}
		if sink, kind := mapOrderSink(p, fn, rng); sink != nil {
			switch kind {
			case "serialize":
				p.Reportf(sink.Pos(), "map iteration order reaches serialized output; collect the keys, sort, and emit in sorted order")
			case "append":
				p.Reportf(sink.Pos(), "map iteration appends to a slice never sorted in this function; sort it before the order becomes observable")
			}
			return false // one finding per range loop
		}
		return true
	})
}

// mapOrderSink finds the first order-observable sink in a map-range
// body: a serializing call, or an append whose destination the
// function never sorts.
func mapOrderSink(p *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) (ast.Node, string) {
	var sink ast.Node
	var kind string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isSerializeCall(p, call) {
			sink, kind = call, "serialize"
			return false
		}
		if dst := appendDest(p, call); dst != nil && !varSortedIn(p, fn, dst) {
			sink, kind = call, "append"
			return false
		}
		return true
	})
	return sink, kind
}

// isSerializeCall recognizes the calls through which ordering becomes
// external bytes: the fmt print family and Write*/Encode methods.
func isSerializeCall(p *Pass, call *ast.CallExpr) bool {
	if path, name, ok := p.PkgFunc(call); ok && path == "fmt" {
		switch name {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			return true
		}
	}
	if _, name, ok := p.MethodCall(call); ok {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
			return true
		}
	}
	return false
}

// appendDest returns the destination variable of `dst = append(dst,
// ...)`-shaped calls, nil for anything else.
func appendDest(p *Pass, call *ast.CallExpr) *types.Var {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return nil
	}
	if p.Info.Uses[id] != types.Universe.Lookup("append") {
		return nil
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := p.Info.ObjectOf(dst).(*types.Var)
	return v
}

// varSortedIn reports whether fn passes v to any sort.* or
// slices.Sort* call (anywhere in the function — collect-then-sort
// usually sorts after the loop).
func varSortedIn(p *Pass, fn *ast.FuncDecl, v *types.Var) bool {
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		path, name, ok := p.PkgFunc(call)
		if !ok {
			return true
		}
		if path != "sort" && !(path == "slices" && len(name) >= 4 && name[:4] == "Sort") {
			return true
		}
		for _, a := range call.Args {
			if id, isIdent := ast.Unparen(a).(*ast.Ident); isIdent {
				if p.Info.ObjectOf(id) == v {
					sorted = true
					return false
				}
			}
		}
		return true
	})
	return sorted
}
