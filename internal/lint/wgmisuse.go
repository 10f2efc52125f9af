package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerWgMisuse flags a sync.WaitGroup Add inside a go-spawned literal
// while the spawning function Waits on the same group: the goroutine may
// not have run when Wait checks the counter, so Wait sees zero, returns,
// and the work is never counted. Neither the race detector (it models a
// Wait that blocks, not one that returns at once) nor WaitGroup's own
// panics see this shape; the other WaitGroup misuses are theirs (DESIGN
// §11).
//
// WaitGroups are keyed per function by their receiver expression.
var AnalyzerWgMisuse = &Analyzer{
	Name:       "wg-misuse",
	Doc:        "flags WaitGroup Adds inside a spawned goroutine while the spawner Waits on the group",
	Severity:   SeverityError,
	RunProgram: runWgMisuse,
}

const (
	wgAdd = iota
	wgWait
)

// wgCall is one recognized WaitGroup operation.
type wgCall struct {
	key  string
	kind int
	pos  token.Pos
}

func runWgMisuse(pp *ProgramPass) {
	conc := pp.Prog.Concurrency()
	seen := make(map[token.Pos]bool)
	for _, site := range conc.SpawnSites {
		lit := site.Callee
		if lit.Lit == nil || site.Caller.Body() == nil {
			continue
		}
		callerPass := pp.PassFor(site.Caller.Pkg)
		waits := make(map[string]bool)
		for _, op := range collectWgOps(callerPass, site.Caller.Body()) {
			if op.kind == wgWait {
				waits[op.key] = true
			}
		}
		litPass := pp.PassFor(lit.Pkg)
		for _, op := range collectWgOps(litPass, lit.Body()) {
			if op.kind != wgAdd || !waits[op.key] || seen[op.pos] {
				continue
			}
			seen[op.pos] = true
			pp.Reportf(op.pos, "%s.Add runs inside a goroutine while %s waits on it; if Wait is reached first the work is never counted — move the Add before the go statement", op.key, site.Caller.Name)
		}
	}
}

// wgOpOf recognizes wg.Add/Wait with a sync.WaitGroup receiver, keyed by
// the receiver's source text (the per-function canonical identity, like
// the lock-balance check uses).
func wgOpOf(pass *Pass, call *ast.CallExpr) (wgCall, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return wgCall{}, false
	}
	var kind int
	switch sel.Sel.Name {
	case "Add":
		kind = wgAdd
	case "Wait":
		kind = wgWait
	default:
		return wgCall{}, false
	}
	s, found := pass.Info.Selections[sel]
	if !found || s.Kind() != types.MethodVal {
		return wgCall{}, false
	}
	obj := s.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return wgCall{}, false
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return wgCall{}, false
	}
	if pkgPath, typeName := namedPath(sig.Recv().Type()); pkgPath != "sync" || typeName != "WaitGroup" {
		return wgCall{}, false
	}
	return wgCall{key: pass.ExprString(sel.X), kind: kind, pos: call.Pos()}, true
}

// collectWgOps gathers every WaitGroup Add and Wait in a body, in AST
// order, excluding go statements (concurrent context) and defers.
func collectWgOps(pass *Pass, body *ast.BlockStmt) []wgCall {
	var out []wgCall
	inspectShallow(body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if op, ok := wgOpOf(pass, m); ok {
				out = append(out, op)
			}
		}
		return true
	})
	return out
}
