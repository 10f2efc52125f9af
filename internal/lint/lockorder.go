package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerLockOrder builds a module-global lock-order graph and flags
// cycles — the cross-function deadlock the per-function lock-balance
// check cannot see. Locks are canonicalized to type-level keys
// ("serving.Runtime.mu", "telemetry.Registry.mu"): an edge A -> B means
// some function may acquire B while holding A, either directly or by
// calling into a function whose summary says it may acquire B. Two
// functions disagreeing about the order (a cycle in the graph) can
// deadlock under concurrency: one goroutine holds A waiting for B while
// another holds B waiting for A. Keys are instance-insensitive, so two
// different values of the same type share a key — a self-edge therefore
// also flags the "same type locked twice" shape, which needs an
// explicit global acquisition order to be safe.
var AnalyzerLockOrder = &Analyzer{
	Name:       "lock-order",
	Doc:        "flags lock-order cycles across functions (potential deadlocks)",
	Severity:   SeverityError,
	RunProgram: runLockOrder,
}

// heldLock is the dataflow payload: where the lock was acquired and
// whether only for reading.
type heldLock struct {
	pos  int
	read bool
}

// orderEdge is one lock-order graph edge with its first witness.
type orderEdge struct {
	from, to string
	// pos is the witness site: the acquire of `to` (direct) or the call
	// that may acquire it.
	pos token.Pos
	// via is the callee chain for summary-based edges, "" when direct.
	via string
	// fn is the witnessing function, for the report.
	fn *Node
}

func runLockOrder(pp *ProgramPass) {
	prog := pp.Prog
	prog.EnsureSummaries()

	type edgeKey struct{ from, to string }
	edges := make(map[edgeKey]*orderEdge)
	record := func(from, to string, pos token.Pos, via string, fn *Node) {
		k := edgeKey{from, to}
		if _, seen := edges[k]; !seen {
			edges[k] = &orderEdge{from: from, to: to, pos: pos, via: via, fn: fn}
		}
	}

	for _, n := range prog.Nodes {
		if n.Decl != nil && lockVerbs[n.Decl.Name.Name] {
			continue // lock wrappers legitimately return holding
		}
		body := n.Body()
		if body == nil {
			continue
		}
		collectOrderEdges(pp, n, record)
	}

	// Condense the key graph (deterministic by sorted key order); any SCC
	// with an internal edge is a cycle.
	adjacent := make(map[string][]string)
	keys := make(map[string]bool)
	for k := range edges {
		adjacent[k.from] = append(adjacent[k.from], k.to)
		keys[k.from], keys[k.to] = true, true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, adj := range adjacent {
		sort.Strings(adj)
	}
	component := make(map[string]int, len(keys))
	for id, scc := range stronglyConnected(sorted, func(k string) []string { return adjacent[k] }) {
		for _, k := range scc {
			component[k] = id
		}
	}

	var cyclic []*orderEdge
	for _, e := range edges {
		if component[e.from] == component[e.to] {
			cyclic = append(cyclic, e)
		}
	}
	sort.Slice(cyclic, func(i, j int) bool {
		if cyclic[i].pos != cyclic[j].pos {
			return cyclic[i].pos < cyclic[j].pos
		}
		return cyclic[i].to < cyclic[j].to
	})
	for _, e := range cyclic {
		cycle := cycleString(component, e)
		if e.from == e.to {
			if e.via != "" {
				pp.Reportf(e.pos, "call to %s may acquire %s while an instance of it is already held in %s; same-type locks need a global acquisition order or this self-deadlocks", e.via, shortKeyName(e.to), e.fn.Name)
			} else {
				pp.Reportf(e.pos, "%s acquired while an instance of it is already held in %s; same-type locks need a global acquisition order or this self-deadlocks", shortKeyName(e.to), e.fn.Name)
			}
			continue
		}
		if e.via != "" {
			pp.Reportf(e.pos, "call to %s may acquire %s while %s is held in %s, but elsewhere the order is reversed (lock-order cycle %s); potential deadlock", e.via, shortKeyName(e.to), shortKeyName(e.from), e.fn.Name, cycle)
		} else {
			pp.Reportf(e.pos, "%s acquired while %s is held in %s, but elsewhere the order is reversed (lock-order cycle %s); potential deadlock", shortKeyName(e.to), shortKeyName(e.from), e.fn.Name, cycle)
		}
	}
}

// collectOrderEdges runs the held-locks forward dataflow over one
// function and emits order edges at every acquire and call site.
// Deferred unlocks do not release here (unlike lock-balance): the lock
// is genuinely held across every statement after the defer.
func collectOrderEdges(pp *ProgramPass, n *Node, record func(from, to string, pos token.Pos, via string, fn *Node)) {
	pass := pp.PassFor(n.Pkg)
	g := pass.BuildCFG(n.Body())
	prog := pp.Prog

	// sites maps call positions to resolved graph edges, so interface
	// fan-out and callback registration contribute summary effects.
	sites := make(map[token.Pos][]*CallSite, len(n.Out))
	for _, e := range n.Out {
		sites[e.Pos] = append(sites[e.Pos], e)
	}

	step := func(node ast.Node, held map[string]heldLock, emit bool) map[string]heldLock {
		out := held
		copied := false
		mutate := func() {
			if !copied {
				copied = true
				out = cloneFacts(held)
			}
		}
		inspectShallow(node, func(m ast.Node) bool {
			if _, isDefer := m.(*ast.DeferStmt); isDefer {
				// Deferred calls run at function exit, not here: a deferred
				// unlock must not release the lock mid-function, and a
				// deferred acquire is not held at the following statements.
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, isLock := globalLockOp(n.Pkg, call); isLock {
				if op.acquire {
					if emit {
						for from, h := range out {
							if from == op.key && h.read && op.read {
								continue // shared re-acquire cannot deadlock alone
							}
							record(from, op.key, call.Pos(), "", n)
						}
					}
					if h, already := out[op.key]; !already || (h.read && !op.read) {
						mutate()
						out[op.key] = heldLock{pos: int(call.Pos()), read: op.read && (!already || h.read)}
					}
				} else {
					if _, tracked := out[op.key]; tracked {
						mutate()
						delete(out, op.key)
					}
				}
				return true
			}
			// Non-lock call: what the callees may acquire is ordered after
			// every lock held here.
			if !emit {
				return true
			}
			for _, e := range sites[call.Pos()] {
				if e.Kind == CallGo {
					continue // runs concurrently, not under our locks
				}
				for to, acq := range prog.mayAcquire[e.Callee] {
					via := e.Callee.Name
					if acq.Via != "" {
						via += " -> " + acq.Via
					}
					for from, h := range out {
						if from == to && h.read && acq.Read {
							continue
						}
						record(from, to, call.Pos(), via, n)
					}
				}
			}
			return true
		})
		return out
	}

	noEmit := func(b *Block, f map[string]heldLock) map[string]heldLock {
		for _, node := range b.Nodes {
			f = step(node, f, false)
		}
		return f
	}
	facts := Solve(g, FlowProblem[map[string]heldLock]{
		Boundary: func() map[string]heldLock { return map[string]heldLock{} },
		Init:     func() map[string]heldLock { return map[string]heldLock{} },
		Meet: func(a, b map[string]heldLock) map[string]heldLock {
			return unionFacts(a, b, func(x, y heldLock) heldLock {
				if y.pos < x.pos {
					return y
				}
				return x
			})
		},
		Equal:    equalFacts[string, heldLock],
		Transfer: noEmit,
	})
	// Emission replay: walk blocks in build order with the solved entry
	// facts so witnesses are deterministic.
	for _, b := range g.Blocks {
		f := facts[b].In
		for _, node := range b.Nodes {
			f = step(node, f, true)
		}
	}
}

// cycleString renders the cycle an edge participates in, for the report.
func cycleString(component map[string]int, e *orderEdge) string {
	if e.from == e.to {
		return shortKeyName(e.from) + " -> " + shortKeyName(e.from)
	}
	var members []string
	for k, c := range component {
		if c == component[e.from] {
			members = append(members, shortKeyName(k))
		}
	}
	sort.Strings(members)
	return strings.Join(members, " <-> ")
}

// --- may-acquire summaries ---

// LockAcquire describes one lock a function may acquire, directly or
// through its callees.
type LockAcquire struct {
	// Via is the call chain from this function to the acquire, "" when
	// direct ("line" or "line -> runWorker"); at most maxWitness names,
	// ending in "..." when the chain is deeper.
	Via string
	// Read marks acquisitions that are only ever RLocks.
	Read bool
}

// maxWitness caps the names in a via chain. It bounds the witness text
// only: an acquisition deeper than that keeps its key.
const maxWitness = 6

// EnsureSummaries computes, for every function, which module-global
// locks it may acquire during a call, directly or through its callees.
// It sweeps the call graph's SCCs bottom-up (callees before callers,
// a fixpoint inside each component so mutual recursion converges).
// Repeat calls are free: the sync.Once cache keeps warm runs from
// re-walking the module.
func (p *Program) EnsureSummaries() {
	p.summaryOnce.Do(func() {
		p.mayAcquire = make(map[*Node]map[string]LockAcquire, len(p.Nodes))
		for _, scc := range p.SCCs {
			// Every summary only grows, so the component converges.
			for round := 0; ; round++ {
				changed := false
				for _, n := range scc {
					p.computations++
					may := p.computeMayAcquire(n)
					if old, seen := p.mayAcquire[n]; !seen || !equalAcquires(old, may) {
						p.mayAcquire[n] = may
						changed = true
					}
				}
				if !changed || round > 2*len(scc)+2 {
					break
				}
			}
		}
	})
}

// computeMayAcquire derives n's may-acquire set from its body and its
// callees' current summaries.
func (p *Program) computeMayAcquire(n *Node) map[string]LockAcquire {
	may := make(map[string]LockAcquire)
	body := n.Body()
	if body == nil {
		return may
	}
	ast.Inspect(body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // separate node; its acquisitions arrive via edges
		case *ast.CallExpr:
			if op, ok := globalLockOp(n.Pkg, m); ok && op.acquire {
				old, seen := may[op.key]
				may[op.key] = LockAcquire{Read: op.read && (!seen || old.Read)}
			}
		}
		return true
	})

	// Goroutine launches run concurrently, not under the caller's locks,
	// so go edges do not contribute.
	for _, e := range n.Out {
		if e.Kind == CallGo {
			continue
		}
		for key, acq := range p.mayAcquire[e.Callee] {
			if old, seen := may[key]; seen {
				if old.Read && !acq.Read {
					old.Read = false
					may[key] = old
				}
				continue
			}
			via := e.Callee.Name
			if acq.Via != "" {
				via += " -> " + acq.Via
			}
			if names := strings.SplitN(via, " -> ", maxWitness+1); len(names) > maxWitness {
				via = strings.Join(names[:maxWitness], " -> ") + " -> ..."
			}
			may[key] = LockAcquire{Via: via, Read: acq.Read}
		}
	}
	return may
}

func equalAcquires(a, b map[string]LockAcquire) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || w.Read != v.Read {
			return false
		}
	}
	return true
}

// globalLock is a lock operation canonicalized to a module-global key:
// "pkgpath.Type.field" for a mutex field of a named type (instance
// insensitive), "pkgpath.Type" for a named type embedding its mutex, or
// "pkgpath.var" for a package-level mutex variable. Function-local
// mutexes have no global identity and are not tracked.
type globalLock struct {
	key     string
	acquire bool
	read    bool
}

// globalLockOp keys a sync lock call by its receiver's type, when the
// receiver canonicalizes.
func globalLockOp(pkg *Package, call *ast.CallExpr) (globalLock, bool) {
	recv, acquire, read := syncLockCall(pkg.Info, call)
	if recv == nil {
		return globalLock{}, false
	}
	key, ok := globalLockKey(pkg, recv)
	return globalLock{key: key, acquire: acquire, read: read}, ok
}

// globalLockKey canonicalizes the receiver expression of a lock call.
func globalLockKey(pkg *Package, recv ast.Expr) (string, bool) {
	recv = ast.Unparen(recv)
	switch recv := recv.(type) {
	case *ast.SelectorExpr:
		// pkgname.GlobalMu.Lock()
		if id, ok := recv.X.(*ast.Ident); ok {
			if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Path() + "." + recv.Sel.Name, true
			}
		}
		// base.field.Lock(): key by the base's named type.
		if tv, ok := pkg.Info.Types[recv.X]; ok && tv.Type != nil {
			if pkgPath, typeName := namedPath(tv.Type); pkgPath != "" {
				return pkgPath + "." + typeName + "." + recv.Sel.Name, true
			}
		}
	case *ast.Ident:
		v, ok := pkg.Info.Uses[recv].(*types.Var)
		if !ok {
			return "", false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			// Package-level mutex variable.
			return v.Pkg().Path() + "." + v.Name(), true
		}
		// A local or receiver of a named type embedding its mutex
		// (s.Lock() through promotion). Plain local sync.Mutex values
		// have no cross-function identity.
		if pkgPath, typeName := namedPath(v.Type()); pkgPath != "" && pkgPath != "sync" {
			return pkgPath + "." + typeName, true
		}
	}
	return "", false
}
