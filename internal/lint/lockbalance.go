package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerLockBalance flags a sync.Mutex/RWMutex Lock (or RLock) that is
// not paired with an Unlock on every path out of the function — the
// mutex-held-across-early-return bug that deadlocks the serving worker
// pools and the registry under load, which AST-level checks cannot see.
// The analysis is a forward may-held dataflow over the function's CFG:
// Lock adds the receiver to the held set, Unlock (direct or deferred)
// removes it, and any lock still held at the normal exit is reported at
// its acquisition site. Functions that are themselves lock wrappers
// (named Lock/Unlock/...) or that use TryLock are skipped.
var AnalyzerLockBalance = &Analyzer{
	Name:         "lock-balance",
	Doc:          "flags sync mutex locks without a matching unlock on some path out of the function",
	Severity:     SeverityError,
	IncludeTests: true,
	Run:          runLockBalance,
}

// lockVerbs are function names exempted from the balance requirement:
// a type wrapping a mutex legitimately returns holding it.
var lockVerbs = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
	"TryLock": true, "TryRLock": true, "lock": true, "unlock": true,
}

func runLockBalance(p *Pass) {
	if p.Info == nil {
		return
	}
	for _, fn := range p.functionBodies() {
		if lockVerbs[fn.Name] {
			continue
		}
		checkLockBalance(p, fn)
	}
}

// syncLockCall matches a call to one of the sync package's
// (R)Lock/(R)Unlock methods, including through embedded mutexes and
// sync.Locker values, and returns the receiver expression; recv is nil
// for any other call. lock-balance keys the receiver by its text
// (resolveLockOp), the whole-module checks by its type (globalLockOp).
func syncLockCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, acquire, read bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return nil, false, false
	}
	s, found := info.Selections[sel]
	if !found || s.Kind() != types.MethodVal {
		return nil, false, false
	}
	if obj := s.Obj(); obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil, false, false
	}
	return sel.X, acquire, read
}

// lockOp classifies one mutex call inside a function.
type lockOp struct {
	key     string // receiver expression text, ":r"-suffixed for RLock/RUnlock
	acquire bool
}

// resolveLockOp keys a sync lock call by its receiver's text.
func resolveLockOp(p *Pass, call *ast.CallExpr) (lockOp, bool) {
	recv, acquire, read := syncLockCall(p.Info, call)
	if recv == nil {
		return lockOp{}, false
	}
	key := p.ExprString(recv)
	if read {
		key += ":r"
	}
	return lockOp{key: key, acquire: acquire}, true
}

func checkLockBalance(p *Pass, fn fnBody) {
	// A function using TryLock acquires conditionally; the textual-key
	// model cannot prove balance there, so stay silent.
	usesTry := false
	inspectShallow(fn.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "TryLock" || sel.Sel.Name == "TryRLock" {
				usesTry = true
			}
		}
		return !usesTry
	})
	if usesTry {
		return
	}

	g := p.BuildCFG(fn.Body)

	step := func(node ast.Node, held map[string]int) map[string]int {
		out := held
		copied := false
		mutate := func() {
			if !copied {
				copied = true
				out = cloneFacts(held)
			}
		}
		if def, ok := node.(*ast.DeferStmt); ok {
			// Releases inside a defer (directly or via a closure) are
			// guaranteed on every subsequent exit; model them as
			// releasing at the defer site.
			ast.Inspect(def, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if op, ok := resolveLockOp(p, call); ok && !op.acquire {
						mutate()
						delete(out, op.key)
					}
				}
				return true
			})
			return out
		}
		inspectShallow(node, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			op, ok := resolveLockOp(p, call)
			if !ok {
				return true
			}
			mutate()
			if op.acquire {
				if _, already := out[op.key]; !already {
					out[op.key] = int(call.Pos())
				}
			} else {
				delete(out, op.key)
			}
			return true
		})
		return out
	}

	facts := Solve(g, FlowProblem[map[string]int]{
		Boundary: func() map[string]int { return map[string]int{} },
		Init:     func() map[string]int { return map[string]int{} },
		Meet:     func(a, b map[string]int) map[string]int { return unionFacts(a, b, keepEarlier) },
		Equal:    equalFacts[string, int],
		Transfer: func(b *Block, f map[string]int) map[string]int {
			for _, node := range b.Nodes {
				f = step(node, f)
			}
			return f
		},
	})

	for key, pos := range facts[g.Exit].In {
		display := key
		verb := "Unlock"
		if k, isRead := cutSuffix(key, ":r"); isRead {
			display = k
			verb = "RUnlock"
		}
		p.Reportf(token.Pos(pos),
			"%s locked here is not released on every path out of %s; add %s.%s() (or defer it) before each return",
			display, fn.Name, display, verb)
	}
}

// cutSuffix is strings.CutSuffix shaped for the lock-key tag.
func cutSuffix(s, suffix string) (string, bool) {
	if len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix {
		return s[:len(s)-len(suffix)], true
	}
	return s, false
}
