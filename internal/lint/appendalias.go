package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerAppendAlias flags two append misuses that silently corrupt or
// drop data in the batch-assembly hot paths, neither of which the race
// detector sees (both happen on one goroutine):
//
//  1. dead append — `s = append(s, x)` where s is never read afterwards
//     (classically: appending to a slice parameter, which the caller
//     never sees). Backward liveness analysis over the CFG.
//  2. diverged append — a second `append(base, ...)` while an earlier
//     `other := append(base, ...)` result is around: when cap(base)
//     exceeds len(base) the second append overwrites the element the
//     first one placed. Forward dataflow; appends on mutually exclusive
//     branches are not flagged.
//
// Severity is warn: each pattern has rare legitimate shapes (an
// intentionally discarded scratch append, a caller that guarantees
// exact capacity), which get a justified suppression.
var AnalyzerAppendAlias = &Analyzer{
	Name:         "append-alias",
	Doc:          "flags appends whose result is lost or whose backing array is shared across aliases",
	Severity:     SeverityWarn,
	IncludeTests: true,
	Run:          runAppendAlias,
}

func runAppendAlias(p *Pass) {
	if p.Info == nil {
		return
	}
	for _, fn := range p.functionBodies() {
		g := p.BuildCFG(fn.Body)
		checkDeadAppend(p, fn, g)
		checkAliasedAppend(p, fn, g)
	}
}

// appendAssign matches lhs[i] = append(...) pairs inside an assignment
// and reports them to fn as (dst ident, append call).
func appendAssigns(as *ast.AssignStmt, fn func(dst *ast.Ident, call *ast.CallExpr)) {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Rhs {
		call, ok := as.Rhs[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		dst, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		fn(dst, call)
	}
}

// --- pattern 1: dead append (backward liveness) ---

func checkDeadAppend(p *Pass, fn fnBody, g *CFG) {
	// extent bounds the analyzed function's declarations: a variable
	// declared outside it is free (captured from an enclosing function),
	// and appending to it is visible there — never dead from this view.
	var extent ast.Node = fn.Decl
	if fn.Decl == nil {
		extent = fn.Lit
	}
	isLocal := func(v *types.Var) bool {
		return v.Pos() >= extent.Pos() && v.Pos() <= extent.End()
	}

	// alwaysLive holds variables whose liveness the intraprocedural view
	// cannot bound: captured by a closure, address-taken, or named
	// results (implicitly returned).
	alwaysLive := make(map[*types.Var]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v := p.useVar(id); v != nil {
						alwaysLive[v] = true
					}
				}
				return true
			})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if v := p.useVar(n.X); v != nil {
					alwaysLive[v] = true
				}
			}
		}
		return true
	})
	named := make(map[*types.Var]bool)
	if fn.Type.Results != nil {
		for _, field := range fn.Type.Results.List {
			for _, id := range field.Names {
				if v := p.useVar(id); v != nil {
					named[v] = true
				}
			}
		}
	}
	params := make(map[*types.Var]bool)
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			for _, id := range field.Names {
				if v := p.useVar(id); v != nil {
					params[v] = true
				}
			}
		}
	}
	if fn.Decl != nil && fn.Decl.Recv != nil {
		for _, field := range fn.Decl.Recv.List {
			for _, id := range field.Names {
				if v := p.useVar(id); v != nil {
					alwaysLive[v] = true // receiver state outlives the call
				}
			}
		}
	}

	type fact = map[*types.Var]int

	// stepBack applies one node's liveness effect in reverse execution
	// order: kill pure definitions, then gen uses.
	stepBack := func(node ast.Node, live fact) fact {
		out := cloneFacts(live)
		if as, ok := node.(*ast.AssignStmt); ok && (as.Tok == token.ASSIGN || as.Tok == token.DEFINE) {
			for _, lhs := range as.Lhs {
				if id, isIdent := lhs.(*ast.Ident); isIdent && id.Name != "_" {
					if v := p.useVar(id); v != nil {
						delete(out, v)
					}
				}
			}
			for _, rhs := range as.Rhs {
				ast.Inspect(rhs, func(m ast.Node) bool {
					if id, isIdent := m.(*ast.Ident); isIdent {
						if v := p.useVar(id); v != nil {
							out[v] = 1
						}
					}
					return true
				})
			}
			return out
		}
		ast.Inspect(node, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v := p.useVar(id); v != nil {
					out[v] = 1
				}
			}
			return true
		})
		return out
	}

	boundary := func() fact {
		f := fact{}
		for v := range named {
			f[v] = 1
		}
		return f
	}
	facts := Solve(g, FlowProblem[fact]{
		Backward: true,
		Boundary: boundary,
		Init:     func() fact { return fact{} },
		Meet:     func(a, b fact) fact { return unionFacts(a, b, keepEarlier) },
		Equal:    equalFacts[*types.Var, int],
		Transfer: func(b *Block, f fact) fact {
			for i := len(b.Nodes) - 1; i >= 0; i-- {
				f = stepBack(b.Nodes[i], f)
			}
			return f
		},
	})

	// Reporting sweep: walk each block backwards from its Out fact so
	// every append-assign sees the liveness state right after it.
	for _, b := range g.Blocks {
		live := facts[b].Out
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			node := b.Nodes[i]
			if as, ok := node.(*ast.AssignStmt); ok {
				appendAssigns(as, func(dst *ast.Ident, call *ast.CallExpr) {
					if dst.Name == "_" {
						return
					}
					v := p.useVar(dst)
					if v == nil || alwaysLive[v] || named[v] || !isLocal(v) {
						return
					}
					if _, isLive := live[v]; isLive {
						return
					}
					if params[v] {
						p.Reportf(call.Pos(),
							"append to parameter %s is lost: slices grow by value, the caller's slice is unchanged — return the appended slice", v.Name())
					} else {
						p.Reportf(call.Pos(),
							"result of append to %s is never used after this point", v.Name())
					}
				})
			}
			live = stepBack(node, live)
		}
	}
}

// --- pattern 2: diverged appends (forward) ---

// checkAliasedAppend tracks, per base slice, the position of the first
// append whose result went to another variable.
func checkAliasedAppend(p *Pass, fn fnBody, g *CFG) {
	type fact = map[*types.Var]int

	baseVarOf := func(call *ast.CallExpr) *types.Var {
		if len(call.Args) == 0 {
			return nil
		}
		return p.useVar(call.Args[0])
	}

	// The reporting sweep revisits blocks whose In facts may overlap, so
	// dedupe by position.
	seen := make(map[int]bool)
	report := func(pos int, format string, args ...any) {
		if seen[pos] {
			return
		}
		seen[pos] = true
		p.Reportf(token.Pos(pos), format, args...)
	}

	step := func(node ast.Node, in fact, reporting bool) fact {
		out := cloneFacts(in)
		if n, ok := node.(*ast.AssignStmt); ok {
			handled := make(map[*types.Var]bool)
			appendAssigns(n, func(dst *ast.Ident, call *ast.CallExpr) {
				base := baseVarOf(call)
				dstVar := p.useVar(dst)
				if base == nil {
					return
				}
				handled[base] = true
				if first, tracked := out[base]; tracked {
					if reporting {
						report(int(call.Pos()),
							"second append from %s may overwrite the element placed by the append at line %d (shared backing array); copy before branching the slice",
							base.Name(), p.Fset.Position(token.Pos(first)).Line)
					}
					return
				}
				if dstVar != nil && dstVar != base {
					out[base] = int(call.Pos())
				}
			})
			// A wholesale reassignment of a tracked base retires it.
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v := p.useVar(id)
				if v == nil || handled[v] {
					continue
				}
				if i < len(n.Rhs) {
					if call, isCall := n.Rhs[i].(*ast.CallExpr); isCall {
						if fid, isIdent := call.Fun.(*ast.Ident); isIdent && fid.Name == "append" {
							continue
						}
					}
				}
				delete(out, v)
			}
		}
		return out
	}

	facts := Solve(g, FlowProblem[fact]{
		Boundary: func() fact { return fact{} },
		Init:     func() fact { return fact{} },
		Meet:     func(a, b fact) fact { return unionFacts(a, b, keepEarlier) },
		Equal:    equalFacts[*types.Var, int],
		Transfer: func(b *Block, f fact) fact {
			for _, node := range b.Nodes {
				f = step(node, f, false)
			}
			return f
		},
	})

	for _, b := range g.Blocks {
		f := facts[b].In
		for _, node := range b.Nodes {
			f = step(node, f, true)
		}
	}
}
