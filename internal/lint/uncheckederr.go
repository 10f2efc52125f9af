package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerUncheckedErr flags discarded error results in the server tiers
// (gateway, service, sensor, dashboard, loadgen, telemetry, cmd/*) on
// the three call shapes where a silently dropped error corrupts the
// monitoring plane: Close (lost flush on persistence files), Write
// (truncated /metrics and API responses), and json.Encoder.Encode
// (half-written JSON bodies the dashboard then fails to parse). An
// explicit `_ =` (or `_, _ =`) assignment is accepted as a deliberate,
// reviewable acknowledgment; a bare or deferred call is not.
var AnalyzerUncheckedErr = &Analyzer{
	Name: "unchecked-err",
	Doc:  "flags discarded errors from Close, Write, and json.Encoder.Encode in the server tiers",
	AppliesTo: func(path string) bool {
		return pathHasAny(path, "internal/gateway", "internal/service", "internal/serving",
			"internal/sensor", "internal/dashboard", "internal/loadgen", "internal/telemetry", "/cmd/",
			"internal/cluster", "internal/wire")
	},
	Run: runUncheckedErr,
}

func runUncheckedErr(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				if c, ok := n.X.(*ast.CallExpr); ok {
					call = c
				}
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				call = n.Call
			}
			if call == nil {
				return true
			}
			if name, ok := errReturningTarget(p, call); ok {
				p.Reportf(call.Pos(), "%s returns an error that is discarded; handle it or assign to _ deliberately", name)
			}
			return true
		})
	}
}

// errReturningTarget reports whether the call is one of the three
// watched shapes and returns an error that the caller is dropping.
func errReturningTarget(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	method := sel.Sel.Name
	switch method {
	case "Close", "Write", "Encode":
	default:
		return "", false
	}
	recv, name, ok := p.MethodCall(call)
	if !ok {
		// Without type info (corpus with broken imports), fall back to
		// the method name alone for Close and Encode; Write is too
		// common a name to flag untyped.
		if p.Info == nil && method != "Write" {
			return "x." + method, true
		}
		return "", false
	}
	if method == "Encode" {
		pkg, typeName := namedPath(recv)
		if pkg != "encoding/json" || typeName != "Encoder" {
			return "", false
		}
		return "json.Encoder.Encode", true
	}
	if !methodReturnsError(p, call) {
		return "", false
	}
	_, typeName := namedPath(recv)
	if typeName == "" {
		typeName = recv.String()
	}
	return typeName + "." + name, true
}

// methodReturnsError reports whether the call's result tuple contains an
// error.
func methodReturnsError(p *Pass, call *ast.CallExpr) bool {
	t := p.TypeOf(call.Fun)
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if named, isNamed := results.At(i).Type().(*types.Named); isNamed && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return true
		}
	}
	return false
}
