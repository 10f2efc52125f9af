package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerCtxLeak flags context.WithCancel/WithTimeout/WithDeadline
// calls whose cancel function is not called on every path out of the
// function. An uncanceled context pins its timer and its parent's child
// list until the parent is canceled — in the gateway and service tiers
// the parent is a server-lifetime context, so each miss is a slow leak
// under sustained traffic. Forward may-be-live dataflow: the assignment
// tracks the cancel variable; calling it, deferring it, passing it,
// storing it, or returning it releases the obligation. A cancel bound to
// the blank identifier is reported immediately. Any handoff discharges:
// a cancel passed to a helper that never calls it is an accepted false
// negative (no call in this tree does that). The finding names the repair:
// `defer cancel()` right after the acquisition (context.CancelFunc is
// idempotent, so that is always safe).
var AnalyzerCtxLeak = &Analyzer{
	Name:         "ctx-leak",
	Doc:          "flags context cancel functions not called on every path out of the function",
	Severity:     SeverityError,
	IncludeTests: true,
	Run:          runCtxLeak,
}

// cancelSources are the context constructors returning a cancel func.
var cancelSources = map[string]bool{
	"WithCancel": true, "WithTimeout": true, "WithDeadline": true,
	"WithCancelCause": true, "WithTimeoutCause": true, "WithDeadlineCause": true,
}

func runCtxLeak(p *Pass) {
	if p.Info == nil {
		return
	}
	for _, fn := range p.functionBodies() {
		checkCtxLeak(p, fn)
	}
}

// cancelAcquisition recognizes `ctx, cancel := context.With*(...)`.
// stored reports a non-identifier cancel destination (a struct field,
// map entry, ...): the owner object takes over the obligation, so such
// acquisitions are neither tracked nor reported.
func cancelAcquisition(p *Pass, as *ast.AssignStmt) (cancelIdent *ast.Ident, call *ast.CallExpr, stored bool) {
	if len(as.Rhs) != 1 || len(as.Lhs) != 2 {
		return nil, nil, false
	}
	c, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, nil, false
	}
	path, name, ok := p.PkgFunc(c)
	if !ok || path != "context" || !cancelSources[name] {
		return nil, nil, false
	}
	ci, isIdent := as.Lhs[1].(*ast.Ident)
	return ci, c, !isIdent
}

func checkCtxLeak(p *Pass, fn fnBody) {
	g := p.BuildCFG(fn.Body)

	type fact = map[*types.Var]int

	step := func(node ast.Node, in fact) fact {
		out := in
		copied := false
		mutate := func() {
			if !copied {
				copied = true
				out = cloneFacts(in)
			}
		}
		release := func(e ast.Expr) {
			if v := p.useVar(e); v != nil {
				if _, tracked := out[v]; tracked {
					mutate()
					delete(out, v)
				}
			}
		}
		if as, ok := node.(*ast.AssignStmt); ok {
			if ci, call, stored := cancelAcquisition(p, as); call != nil {
				if stored {
					return out
				}
				if ci == nil || ci.Name == "_" {
					p.Reportf(call.Pos(), "cancel function discarded; the context leaks until its parent is canceled — bind it and defer cancel()")
					return out
				}
				if v := p.useVar(ci); v != nil {
					mutate()
					out[v] = int(call.Pos())
				}
				return out
			}
		}
		// A closure capturing the cancel variable takes over the
		// obligation (it may run after this function returns).
		releaseCaptured(node, release)
		deep := false
		if _, isDefer := node.(*ast.DeferStmt); isDefer {
			deep = true // defer cancel() or defer func(){ cancel() }()
		}
		walk := inspectShallow
		if deep {
			walk = func(m ast.Node, f func(ast.Node) bool) { ast.Inspect(m, f) }
		}
		walk(node, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				// cancel() called, or cancel passed along — to a helper or,
				// in `go cancelLater(cancel)`, to the spawned goroutine.
				release(m.Fun)
				for _, arg := range m.Args {
					release(arg)
				}
			case *ast.ReturnStmt:
				for _, res := range m.Results {
					release(res)
				}
			case *ast.AssignStmt:
				// cancel stored (s.cancel = cancel, other = cancel).
				for _, rhs := range m.Rhs {
					release(rhs)
				}
			}
			return true
		})
		return out
	}

	facts := Solve(g, FlowProblem[fact]{
		Boundary: func() fact { return fact{} },
		Init:     func() fact { return fact{} },
		Meet:     func(a, b fact) fact { return unionFacts(a, b, keepEarlier) },
		Equal:    equalFacts[*types.Var, int],
		Transfer: func(b *Block, f fact) fact {
			for _, node := range b.Nodes {
				f = step(node, f)
			}
			return f
		},
	})

	for v, pos := range facts[g.Exit].In {
		p.Reportf(token.Pos(pos),
			"%s is not called on every path out of %s; defer %s() right after the context is created",
			v.Name(), fn.Name, v.Name())
	}
}
