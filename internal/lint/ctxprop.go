package lint

import (
	"go/ast"
	"go/token"
)

// AnalyzerCtxPropagation flags exported functions in the serving tiers
// (gateway, service, sensor, dashboard) that perform HTTP calls without
// accepting a context.Context (or an *http.Request to derive one from).
// A context-less hop drops the X-Trace-Id/X-Span-Id pair telemetry
// propagates, so the downstream span detaches from its trace and the
// dashboard's cross-tier latency joins silently lose data. It also flags
// http.NewRequest, which builds a context-less request even when a
// context is in scope — use http.NewRequestWithContext.
var AnalyzerCtxPropagation = &Analyzer{
	Name: "ctx-propagation",
	Doc:  "flags exported serving-tier functions doing HTTP without a context, and http.NewRequest",
	AppliesTo: func(path string) bool {
		return pathHasAny(path, "internal/gateway", "internal/service", "internal/serving", "internal/sensor", "internal/dashboard",
			"internal/cluster", "internal/wire")
	},
	Run: runCtxPropagation,
}

func runCtxPropagation(p *Pass) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkNewRequest(p, fn)
			if !fn.Name.IsExported() {
				continue
			}
			if hasContextAccess(p, fn.Type) {
				continue
			}
			if pos, desc, found := findHTTPCall(p, fn.Body); found {
				p.Reportf(pos, "exported %s performs an HTTP call (%s) without accepting a context.Context; the X-Trace-Id span chain breaks here", fn.Name.Name, desc)
			}
		}
	}
}

// checkNewRequest flags http.NewRequest anywhere (exported or not): the
// context-less constructor is never right in the serving tiers.
func checkNewRequest(p *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, name, ok := p.PkgFunc(call); ok && path == "net/http" && name == "NewRequest" {
			p.Reportf(call.Pos(), "http.NewRequest builds a context-less request; use http.NewRequestWithContext so trace headers and cancellation propagate")
		}
		return true
	})
}

// hasContextAccess reports whether the signature provides a context:
// either a context.Context parameter or an *http.Request (whose
// .Context() carries the inbound trace).
func hasContextAccess(p *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := p.TypeOf(field.Type)
		if t != nil {
			pkg, name := namedPath(t)
			if (pkg == "context" && name == "Context") || (pkg == "net/http" && name == "Request") {
				return true
			}
			continue
		}
		// Syntactic fallback for partially type-checked corpus code.
		if sel, ok := unwrapStar(field.Type).(*ast.SelectorExpr); ok {
			if x, isIdent := sel.X.(*ast.Ident); isIdent {
				if x.Name == "context" && sel.Sel.Name == "Context" {
					return true
				}
				if x.Name == "http" && sel.Sel.Name == "Request" {
					return true
				}
			}
		}
	}
	return false
}

func unwrapStar(e ast.Expr) ast.Expr {
	if star, ok := e.(*ast.StarExpr); ok {
		return star.X
	}
	return e
}

// findHTTPCall locates the first HTTP-performing call in the body:
// package-level http.Get/Head/Post/PostForm, or Do/Get/Post/PostForm/
// Head methods on *http.Client.
func findHTTPCall(p *Pass, body *ast.BlockStmt) (pos token.Pos, desc string, found bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, name, ok := p.PkgFunc(call); ok && path == "net/http" {
			switch name {
			case "Get", "Head", "Post", "PostForm":
				pos, desc, found = call.Pos(), "http."+name, true
				return false
			}
		}
		if recv, name, ok := p.MethodCall(call); ok {
			pkg, typeName := namedPath(recv)
			if pkg == "net/http" && typeName == "Client" {
				switch name {
				case "Do", "Get", "Head", "Post", "PostForm":
					pos, desc, found = call.Pos(), "http.Client."+name, true
					return false
				}
			}
		}
		return true
	})
	return pos, desc, found
}
