package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerBodyLeak flags *http.Response bodies that are not closed on
// every path out of the function. A leaked body pins the underlying
// connection, so the service client's retry loops and the gateway's
// health prober slowly exhaust the transport's connection pool under the
// capacity experiments. The analysis is a forward may-be-open dataflow:
// acquiring a response opens it; Body.Close() (direct or deferred),
// returning the response, or handing it to another function releases it.
// Any handoff discharges: a response passed to a helper that never closes
// it is an accepted false negative (no call in this tree does that).
// Branch conditions refine the facts: on the `err != nil` edge of the
// acquiring call's error the response is nil, and likewise on explicit
// `resp == nil` tests, so the standard error-check idiom never trips it.
var AnalyzerBodyLeak = &Analyzer{
	Name:         "body-leak",
	Doc:          "flags http.Response bodies not closed on every path out of the function",
	Severity:     SeverityError,
	IncludeTests: true,
	Run:          runBodyLeak,
}

// openResp is the fact payload for one tracked response variable.
type openResp struct {
	pos  int        // acquisition site, for reporting
	errv *types.Var // the error variable paired at acquisition (nil if blank)
}

func runBodyLeak(p *Pass) {
	if p.Info == nil {
		return
	}
	for _, fn := range p.functionBodies() {
		checkBodyLeak(p, fn)
	}
}

// respAcquisition recognizes `resp, err := <call>` where the call
// returns (*net/http.Response, error).
func respAcquisition(p *Pass, as *ast.AssignStmt) (respIdent, errIdent *ast.Ident, call *ast.CallExpr) {
	if len(as.Rhs) != 1 || len(as.Lhs) != 2 {
		return nil, nil, nil
	}
	c, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, nil, nil
	}
	tup, ok := p.TypeOf(c).(*types.Tuple)
	if !ok || tup.Len() != 2 {
		return nil, nil, nil
	}
	ptr, ok := tup.At(0).Type().(*types.Pointer)
	if !ok {
		return nil, nil, nil
	}
	if pkg, name := namedPath(ptr); pkg != "net/http" || name != "Response" {
		return nil, nil, nil
	}
	ri, _ := as.Lhs[0].(*ast.Ident)
	ei, _ := as.Lhs[1].(*ast.Ident)
	return ri, ei, c
}

func checkBodyLeak(p *Pass, fn fnBody) {
	g := p.BuildCFG(fn.Body)

	type fact = map[*types.Var]openResp

	// release deletes v when expr releases it: v.Body.Close(), v passed
	// whole to a call, v aliased by an assignment, or v returned.
	bodyCloseVar := func(call *ast.CallExpr) *types.Var {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return nil
		}
		inner, ok := sel.X.(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != "Body" {
			return nil
		}
		return p.useVar(inner.X)
	}

	step := func(node ast.Node, in fact) fact {
		out := in
		copied := false
		mutate := func() {
			if !copied {
				copied = true
				out = cloneFacts(in)
			}
		}
		scan := func(n ast.Node, deep bool) {
			walk := inspectShallow
			if deep {
				walk = func(m ast.Node, f func(ast.Node) bool) { ast.Inspect(m, f) }
			}
			walk(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.CallExpr:
					if v := bodyCloseVar(m); v != nil {
						if _, tracked := out[v]; tracked {
							mutate()
							delete(out, v)
						}
					}
					// The response handed off whole: the callee owns it.
					for _, arg := range m.Args {
						if v := p.useVar(arg); v != nil {
							if _, tracked := out[v]; tracked {
								mutate()
								delete(out, v)
							}
						}
					}
				case *ast.ReturnStmt:
					for _, res := range m.Results {
						if v := p.useVar(res); v != nil {
							if _, tracked := out[v]; tracked {
								mutate()
								delete(out, v)
							}
						}
					}
				}
				return true
			})
		}

		// A closure capturing the response takes over the obligation
		// (retry helpers close inside the closure they return).
		releaseCaptured(node, func(e ast.Expr) {
			if v := p.useVar(e); v != nil {
				if _, tracked := out[v]; tracked {
					mutate()
					delete(out, v)
				}
			}
		})

		switch n := node.(type) {
		case *ast.DeferStmt:
			// defer resp.Body.Close() (or a closure doing it) releases
			// on every exit after this point.
			scan(n, true)
		case *ast.AssignStmt:
			if ri, ei, call := respAcquisition(p, n); call != nil {
				if ri == nil || ri.Name == "_" {
					p.Reportf(call.Pos(), "response discarded without closing its Body; bind it and close on every path")
					return out
				}
				v := p.useVar(ri)
				if v == nil {
					return out
				}
				var ev *types.Var
				if ei != nil && ei.Name != "_" {
					ev = p.useVar(ei)
				}
				mutate()
				out[v] = openResp{pos: int(call.Pos()), errv: ev}
				return out
			}
			// An alias (x := resp) transfers ownership conservatively.
			for _, rhs := range n.Rhs {
				if v := p.useVar(rhs); v != nil {
					if _, tracked := out[v]; tracked {
						mutate()
						delete(out, v)
					}
				}
			}
			scan(n, false)
		default:
			scan(node, false)
		}
		return out
	}

	// nilRefine narrows facts along conditional edges using the
	// `err != nil` / `resp == nil` idioms.
	nilRefine := func(from, to *Block, f fact) fact {
		if from.Cond == nil || (to != from.TrueSucc && to != from.FalseSucc) {
			return f
		}
		bin, ok := from.Cond.(*ast.BinaryExpr)
		if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
			return f
		}
		v, isNilCmp := nilComparand(p, bin)
		if v == nil || !isNilCmp {
			return f
		}
		// On which edge is v known to be nil?
		nilEdge := from.TrueSucc
		if bin.Op == token.NEQ {
			nilEdge = from.FalseSucc
		}
		var out fact
		remove := func(key *types.Var) {
			if _, tracked := f[key]; tracked {
				if out == nil {
					out = cloneFacts(f)
				}
				delete(out, key)
			}
		}
		for key, info := range f {
			if key == v && to == nilEdge {
				// resp itself known nil: nothing to close.
				remove(key)
			}
			if info.errv != nil && info.errv == v && to != nilEdge {
				// The paired error is non-nil, so resp is nil (the
				// http.Client contract) on this edge.
				remove(key)
			}
		}
		if out == nil {
			return f
		}
		return out
	}

	facts := Solve(g, FlowProblem[fact]{
		Boundary: func() fact { return fact{} },
		Init:     func() fact { return fact{} },
		Meet: func(a, b fact) fact {
			return unionFacts(a, b, func(x, y openResp) openResp {
				if y.pos < x.pos {
					return y
				}
				return x
			})
		},
		Equal: equalFacts[*types.Var, openResp],
		Transfer: func(b *Block, f fact) fact {
			for _, node := range b.Nodes {
				f = step(node, f)
			}
			return f
		},
		EdgeRefine: nilRefine,
	})

	for v, info := range facts[g.Exit].In {
		p.Reportf(token.Pos(info.pos),
			"%s.Body is not closed on every path out of %s; defer %s.Body.Close() after the error check",
			v.Name(), fn.Name, v.Name())
	}
}

// nilComparand matches `x <op> nil` / `nil <op> x` and returns x's
// variable.
func nilComparand(p *Pass, bin *ast.BinaryExpr) (*types.Var, bool) {
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if isNil(bin.Y) {
		return p.useVar(bin.X), true
	}
	if isNil(bin.X) {
		return p.useVar(bin.Y), true
	}
	return nil, false
}
