package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the goroutine topology graph the concurrency checks
// (unguarded-field, chan-deadlock, wg-misuse) run on. It is a
// module-wide view layered on the call graph: which functions may execute
// on a spawned goroutine (go-reachability over call edges), every access
// to a shared struct field classified as plain read/write, atomic, or
// address escape — each tagged with the set of module-global locks held
// at the access site per the same canonicalization the lock-order check
// uses — and every endpoint of a statically identifiable channel (make,
// send, receive, close) so pairing can be checked across the spawn graph.
//
// Lock context is computed per function by the held-locks forward
// dataflow from lockorder.go (deferred unlocks do not release
// mid-function), then replayed in deterministic block order to tag each
// access. Function literals invoked synchronously (direct call, callback
// registration) inherit the held set at their creation site; go-spawned
// literals start with no locks, like the goroutines they become. Callees
// contribute nothing: no function in this module returns holding or
// releasing a lock.

// AccessMode classifies one access to a shared struct field.
type AccessMode uint8

const (
	// AccessRead is a plain (non-atomic) load of the field.
	AccessRead AccessMode = iota
	// AccessWrite is a plain store, compound assignment, or element write
	// through the field (map/slice element writes race like field writes).
	AccessWrite
	// AccessAtomic is an access through sync/atomic functions taking the
	// field's address (atomic.AddInt64(&s.n, 1), atomic.LoadUint32(&s.f)).
	AccessAtomic
	// AccessEscape is the field's address taken in any non-atomic context:
	// the analysis loses track of subsequent accesses, so escaped fields
	// are excluded from the race checks.
	AccessEscape
)

// String renders the mode for diagnostics.
func (m AccessMode) String() string {
	switch m {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "written"
	case AccessAtomic:
		return "accessed atomically"
	default:
		return "address-taken"
	}
}

// FieldAccess is one access to a shared struct field.
type FieldAccess struct {
	// Node is the function the access occurs in.
	Node *Node
	// Pos locates the access.
	Pos token.Pos
	// Mode classifies the access.
	Mode AccessMode
	// Held is the set of module-global lock keys held at the access, per
	// the held-locks dataflow (may-held: a lock acquired on some path to
	// the access counts).
	Held map[string]bool
	// Confined marks accesses through a value allocated in the accessing
	// function (`m := &member{...}; m.x = 1`): constructor-confined state
	// is not shared yet and is excluded from the race checks.
	Confined bool
}

// FieldInfo aggregates every observed access to one struct field, keyed
// "pkgpath.Type.field" like the lock canonicalization.
type FieldInfo struct {
	// Key is the canonical field identity.
	Key string
	// Accesses lists every access in deterministic (node build, block
	// replay) order.
	Accesses []*FieldAccess
}

// ChanOp classifies a channel endpoint.
type ChanOp uint8

const (
	// ChanMake is a `make(chan T[, n])` creating the channel.
	ChanMake ChanOp = iota
	// ChanSend is a send statement (including select send clauses).
	ChanSend
	// ChanRecv is a receive: unary <-, range over the channel, or a select
	// receive clause.
	ChanRecv
	// ChanClose is a close(ch) call.
	ChanClose
	// ChanEscape is any other use — passed as an argument, returned,
	// stored, or rebound — after which pairing cannot be tracked.
	ChanEscape
)

// ChanEndpoint is one channel operation site.
type ChanEndpoint struct {
	// Node is the function the operation occurs in.
	Node *Node
	// Pos locates the operation.
	Pos token.Pos
	// Op classifies the operation.
	Op ChanOp
	// NonBlocking marks sends/receives in a select that has a default
	// clause: they cannot block forever.
	NonBlocking bool
	// Unbuffered is set on make endpoints whose capacity is statically
	// zero (omitted or the constant 0).
	Unbuffered bool
}

// ChanInfo aggregates every endpoint of one statically identified
// channel: a struct field, a package-level variable, or a function-local
// variable (which closures share by capture).
type ChanInfo struct {
	// Key is the canonical channel identity.
	Key string
	// Display is the short name used in diagnostics ("cluster.Cluster.stop",
	// "jobs").
	Display string
	// Endpoints lists every operation in deterministic order.
	Endpoints []*ChanEndpoint
}

// Concurrency is the goroutine topology view shared by the concurrency
// checks. Build it once per Program via Program.Concurrency.
type Concurrency struct {
	prog *Program
	// SpawnSites are the `go` edges of the call graph, in build order.
	SpawnSites []*CallSite
	// Fields maps canonical field keys to their accesses.
	Fields map[string]*FieldInfo
	// Chans maps canonical channel keys to their endpoints.
	Chans map[string]*ChanInfo

	goReachable map[*Node]bool
	// onceConfined marks function literals passed to sync.Once.Do: the
	// Do barrier publishes their writes, so accesses inside are
	// initialization, not racing shared state.
	onceConfined map[*Node]bool
}

// GoReachable reports whether n may execute on a spawned goroutine:
// it is the callee of a go statement or transitively reachable from one.
func (c *Concurrency) GoReachable(n *Node) bool { return c.goReachable[n] }

// FieldKeys returns the field keys in sorted order, for deterministic
// iteration.
func (c *Concurrency) FieldKeys() []string {
	keys := make([]string, 0, len(c.Fields))
	for k := range c.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ChanKeys returns the channel keys in sorted order.
func (c *Concurrency) ChanKeys() []string {
	keys := make([]string, 0, len(c.Chans))
	for k := range c.Chans {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Concurrency builds (once) and returns the goroutine topology graph.
func (p *Program) Concurrency() *Concurrency {
	p.concOnce.Do(func() {
		c := &Concurrency{
			prog:         p,
			Fields:       make(map[string]*FieldInfo),
			Chans:        make(map[string]*ChanInfo),
			goReachable:  make(map[*Node]bool),
			onceConfined: make(map[*Node]bool),
		}
		var frontier []*Node
		for _, n := range p.Nodes {
			for _, e := range n.Out {
				if e.Kind != CallGo {
					continue
				}
				c.SpawnSites = append(c.SpawnSites, e)
				if !c.goReachable[e.Callee] {
					c.goReachable[e.Callee] = true
					frontier = append(frontier, e.Callee)
				}
			}
		}
		for len(frontier) > 0 {
			n := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, e := range n.Out {
				if !c.goReachable[e.Callee] {
					c.goReachable[e.Callee] = true
					frontier = append(frontier, e.Callee)
				}
			}
		}
		module := make(map[string]bool, len(p.Pkgs))
		for _, pkg := range p.Pkgs {
			module[pkg.Path] = true
		}
		// Walk every body in node order: declarations precede their
		// literals, so a literal's inherited lock context is recorded
		// before the literal itself is scanned.
		entryHeld := make(map[*Node]map[string]bool)
		for _, n := range p.Nodes {
			if n.Body() == nil {
				continue
			}
			w := &concWalker{
				prog:      p,
				conc:      c,
				n:         n,
				module:    module,
				entryHeld: entryHeld,
			}
			w.run()
		}
		p.conc = c
	})
	return p.conc
}

// concWalker collects field accesses and channel endpoints for one
// function, replaying the held-locks dataflow to tag lock context.
type concWalker struct {
	prog   *Program
	conc   *Concurrency
	n      *Node
	module map[string]bool
	// entryHeld accumulates, per literal node, the lock context at its
	// synchronous creation sites (shared across walkers).
	entryHeld map[*Node]map[string]bool

	pass *Pass
	// nonBlocking marks select communication statements whose select has
	// a default clause.
	nonBlocking map[ast.Node]bool
	// confined are local variables allocated (and only assigned) in this
	// function: accesses through them are constructor-confined.
	confined map[*types.Var]bool

	// held is the current lock context, mutated during a scan.
	held map[string]bool
	// emit gates recording: false during the dataflow solve, true during
	// the deterministic replay.
	emit bool
	// goDepth is positive while scanning the call expression of a go
	// statement: argument evaluation happens in the current goroutine but
	// the callee runs concurrently, without our locks.
	goDepth int
	// curNonBlocking is set while scanning a select comm statement whose
	// select has a default.
	curNonBlocking bool
}

func (w *concWalker) run() {
	pkg := w.n.Pkg
	w.pass = &Pass{Fset: w.prog.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, Path: pkg.Path}
	w.collectNonBlocking()
	w.collectConfined()

	body := w.n.Body()
	g := w.pass.BuildCFG(body)
	boundary := w.entryHeld[w.n]
	if boundary == nil {
		boundary = map[string]bool{}
	}
	facts := Solve(g, FlowProblem[map[string]bool]{
		Boundary: func() map[string]bool { return cloneFacts(boundary) },
		Init:     func() map[string]bool { return map[string]bool{} },
		Meet: func(a, b map[string]bool) map[string]bool {
			return unionFacts(a, b, nil)
		},
		Equal: equalFacts[string, bool],
		Transfer: func(b *Block, f map[string]bool) map[string]bool {
			w.held = cloneFacts(f)
			w.emit = false
			for _, node := range b.Nodes {
				w.scanNode(node)
			}
			return w.held
		},
	})
	// Deterministic replay: revisit blocks in build order with solved
	// entry facts, recording accesses and endpoints this time.
	for _, b := range g.Blocks {
		w.held = cloneFacts(facts[b].In)
		w.emit = true
		for _, node := range b.Nodes {
			w.scanNode(node)
		}
	}
}

// collectNonBlocking marks the comm statements of selects that have a
// default clause: their sends and receives cannot block forever.
func (w *concWalker) collectNonBlocking() {
	w.nonBlocking = make(map[ast.Node]bool)
	inspectShallow(w.n.Body(), func(m ast.Node) bool {
		sel, ok := m.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, isComm := c.(*ast.CommClause); isComm && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, isComm := c.(*ast.CommClause); isComm && cc.Comm != nil {
				w.nonBlocking[cc.Comm] = true
			}
		}
		return true
	})
}

// collectConfined finds local variables whose only assignment allocates a
// fresh value (`v := &T{...}`, `v := T{...}`, `v := new(T)`): field
// accesses through them are constructor-confined until publication, which
// the checks treat as not-yet-shared.
func (w *concWalker) collectConfined() {
	w.confined = make(map[*types.Var]bool)
	assignments := make(map[*types.Var]int)
	record := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		v := lookupVar(w.n.Pkg, id)
		if v == nil {
			return
		}
		assignments[v]++
		if rhs != nil && allocExpr(rhs) {
			w.confined[v] = true
		}
	}
	inspectShallow(w.n.Body(), func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			if len(m.Lhs) == len(m.Rhs) {
				for i := range m.Lhs {
					record(m.Lhs[i], m.Rhs[i])
				}
			} else {
				for _, lhs := range m.Lhs {
					record(lhs, nil)
				}
			}
		case *ast.ValueSpec:
			for i, name := range m.Names {
				var rhs ast.Expr
				if i < len(m.Values) {
					rhs = m.Values[i]
				}
				record(name, rhs)
			}
		}
		return true
	})
	for v, n := range assignments {
		if n > 1 {
			delete(w.confined, v)
		}
	}
}

// allocExpr reports whether e allocates a fresh value.
func allocExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, isLit := ast.Unparen(e.X).(*ast.CompositeLit)
		return isLit
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

// scanNode processes one CFG node (a statement, a condition expression,
// or a range header) in AST order, updating the lock context and — when
// emitting — recording accesses and endpoints.
func (w *concWalker) scanNode(node ast.Node) {
	switch s := node.(type) {
	case *ast.DeferStmt:
		// Deferred calls run at function exit; consistent with the
		// lock-order dataflow they neither release locks mid-function nor
		// contribute accesses at this point. A deferred close(ch) is the
		// idiomatic guaranteed-close, though: record it for pairing.
		if id, ok := s.Call.Fun.(*ast.Ident); ok && id.Name == "close" && len(s.Call.Args) == 1 {
			if obj, found := w.n.Pkg.Info.Uses[id]; !found || obj.Pkg() == nil {
				w.chanEndpoint(s.Call.Args[0], ChanClose, s.Call.Pos())
				w.valueUse(s.Call.Args[0])
			}
		}
	case *ast.GoStmt:
		w.goDepth++
		w.call(s.Call)
		w.goDepth--
	case *ast.AssignStmt:
		w.curNonBlocking = w.nonBlocking[s]
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				w.assignPair(s.Lhs[i], s.Rhs[i], s.Tok)
			}
		} else {
			for _, rhs := range s.Rhs {
				w.expr(rhs)
			}
			for _, lhs := range s.Lhs {
				w.lhs(lhs)
				w.chanRebind(lhs)
			}
		}
		w.curNonBlocking = false
	case *ast.IncDecStmt:
		w.lhs(s.X)
	case *ast.SendStmt:
		w.curNonBlocking = w.nonBlocking[s]
		w.chanEndpoint(s.Chan, ChanSend, s.Arrow)
		w.valueUse(s.Chan)
		w.curNonBlocking = false
		w.expr(s.Value)
	case *ast.ExprStmt:
		w.curNonBlocking = w.nonBlocking[s]
		w.expr(s.X)
		w.curNonBlocking = false
	case *ast.RangeStmt:
		// Only the header: the body statements live in their own blocks.
		if t := w.pass.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.chanEndpoint(s.X, ChanRecv, s.X.Pos())
				w.valueUse(s.X)
				return
			}
		}
		w.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, isVS := spec.(*ast.ValueSpec)
				if !isVS {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						w.assignPair(name, vs.Values[i], token.DEFINE)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			w.expr(res)
		}
	case ast.Expr:
		w.expr(s)
	case ast.Stmt:
		// Remaining straight-line statements (branch, empty, labeled
		// residue) carry no scannable expressions.
	}
}

// assignPair handles one lhs = rhs pair: channel makes and rebinds are
// intercepted before the generic scans.
func (w *concWalker) assignPair(lhs, rhs ast.Expr, tok token.Token) {
	if mk, unbuf, isMake := chanMakeExpr(w.pass, rhs); isMake {
		if key, disp, ok := w.chanKey(lhs); ok {
			w.recordChan(key, disp, &ChanEndpoint{Node: w.n, Pos: mk.Pos(), Op: ChanMake, Unbuffered: unbuf})
		}
		w.lhs(lhs)
		return
	}
	w.expr(rhs)
	if tok != token.DEFINE {
		w.chanRebind(lhs)
	}
	w.lhs(lhs)
}

// chanRebind poisons a channel identity that is reassigned from an
// arbitrary value: pairing can no longer be tracked.
func (w *concWalker) chanRebind(lhs ast.Expr) {
	if key, disp, ok := w.chanKey(lhs); ok {
		w.recordChan(key, disp, &ChanEndpoint{Node: w.n, Pos: lhs.Pos(), Op: ChanEscape})
	}
}

// chanMakeExpr recognizes make(chan T) / make(chan T, n), reporting
// whether the capacity is statically zero.
func chanMakeExpr(pass *Pass, e ast.Expr) (*ast.CallExpr, bool, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return nil, false, false
	}
	if t := pass.TypeOf(call); t != nil {
		if _, isChan := t.Underlying().(*types.Chan); !isChan {
			return nil, false, false
		}
	} else if _, isChanType := call.Args[0].(*ast.ChanType); !isChanType {
		return nil, false, false
	}
	unbuffered := len(call.Args) == 1
	if len(call.Args) == 2 {
		if cv := pass.ConstValue(call.Args[1]); cv != nil && cv.String() == "0" {
			unbuffered = true
		}
	}
	return call, unbuffered, true
}

// lhs classifies an assignment target: field selectors are writes,
// element writes count against the container field, everything else
// degrades to a generic scan of the base.
func (w *concWalker) lhs(e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		w.fieldAccess(e, AccessWrite)
		w.expr(e.X)
	case *ast.IndexExpr:
		// Element write through a field (m.conns[id] = x): the container
		// races like the field itself.
		if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
			w.fieldAccess(sel, AccessWrite)
			w.expr(sel.X)
		} else {
			w.expr(e.X)
		}
		w.expr(e.Index)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.Ident:
		// Local/global scalar writes carry no field identity.
	default:
		w.expr(e)
	}
}

// expr scans a general expression position: plain reads, channel escapes,
// calls, and address-taking.
func (w *concWalker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			w.chanEndpoint(e.X, ChanRecv, e.Pos())
			w.valueUse(e.X)
			return
		}
		if e.Op == token.AND {
			w.addrOf(e.X, false)
			return
		}
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.fieldAccess(e, AccessRead)
		if key, disp, ok := w.chanKey(e); ok {
			w.recordChan(key, disp, &ChanEndpoint{Node: w.n, Pos: e.Pos(), Op: ChanEscape})
		}
		w.expr(e.X)
	case *ast.Ident:
		if key, disp, ok := w.chanKey(e); ok {
			w.recordChan(key, disp, &ChanEndpoint{Node: w.n, Pos: e.Pos(), Op: ChanEscape})
		}
	case *ast.CallExpr:
		w.call(e)
	case *ast.FuncLit:
		// A separate node: record the lock context it inherits when
		// created synchronously (go-spawned literals start lock-free).
		if w.goDepth == 0 {
			if ln := w.prog.byLit[e]; ln != nil {
				w.entryHeld[ln] = unionFacts(w.entryHeld[ln], w.held, nil)
			}
		}
	case *ast.CompositeLit:
		w.compositeLit(e)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.IndexListExpr:
		w.expr(e.X)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.KeyValueExpr:
		w.expr(e.Key)
		w.expr(e.Value)
	}
}

// compositeLit scans a composite literal: keyed field initialization is
// construction, not a shared access, but `stop: make(chan struct{})`
// still records the channel make against the field identity.
func (w *concWalker) compositeLit(lit *ast.CompositeLit) {
	pkgPath, typeName := "", ""
	if t := w.pass.TypeOf(lit); t != nil {
		pkgPath, typeName = namedPath(t)
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			w.expr(elt)
			continue
		}
		if id, isIdent := kv.Key.(*ast.Ident); isIdent && pkgPath != "" && w.module[pkgPath] {
			if mk, unbuf, isMake := chanMakeExpr(w.pass, kv.Value); isMake {
				key := pkgPath + "." + typeName + "." + id.Name
				w.recordChan(key, shortKeyName(key), &ChanEndpoint{Node: w.n, Pos: mk.Pos(), Op: ChanMake, Unbuffered: unbuf})
				continue
			}
		}
		w.expr(kv.Value)
	}
}

// call handles lock operations, channel closes, atomic operations, and
// generic calls (argument scans).
func (w *concWalker) call(call *ast.CallExpr) {
	// Mutex operations update the lock context.
	if op, isLock := globalLockOp(w.n.Pkg, call); isLock {
		if w.goDepth > 0 {
			return
		}
		if op.acquire {
			w.held[op.key] = true
		} else {
			delete(w.held, op.key)
		}
		return
	}
	// close(ch) pairs like a final send.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
		if obj, found := w.n.Pkg.Info.Uses[id]; !found || obj.Pkg() == nil {
			w.chanEndpoint(call.Args[0], ChanClose, call.Pos())
			w.valueUse(call.Args[0])
			return
		}
	}
	// sync.Once.Do(func(){...}): the literal runs under the Once barrier,
	// so its accesses are initialization-confined.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Do" {
		if s, found := w.n.Pkg.Info.Selections[sel]; found && s.Kind() == types.MethodVal {
			if obj := s.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				for _, arg := range call.Args {
					if lit, isLit := ast.Unparen(arg).(*ast.FuncLit); isLit {
						if ln := w.prog.byLit[lit]; ln != nil {
							w.conc.onceConfined[ln] = true
						}
					}
				}
			}
		}
	}
	// sync/atomic package functions: &s.f arguments are atomic accesses.
	if path, _, ok := w.pass.PkgFunc(call); ok && path == "sync/atomic" {
		for _, arg := range call.Args {
			if u, isAddr := ast.Unparen(arg).(*ast.UnaryExpr); isAddr && u.Op == token.AND {
				w.addrOf(u.X, true)
			} else {
				w.expr(arg)
			}
		}
		return
	}
	// Method calls on sync/atomic-typed values (x.n.Add(1)): the receiver
	// chain is scanned but the atomic-typed field itself is not a plain
	// access.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	} else {
		w.expr(call.Fun)
	}
	for _, arg := range call.Args {
		w.expr(arg)
	}
}

// addrOf classifies &x.f: an atomic access when the address feeds a
// sync/atomic function, an escape otherwise.
func (w *concWalker) addrOf(x ast.Expr, atomic bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		mode := AccessEscape
		if atomic {
			mode = AccessAtomic
		}
		w.fieldAccess(x, mode)
		w.expr(x.X)
	case *ast.Ident:
		if key, disp, ok := w.chanKey(x); ok {
			w.recordChan(key, disp, &ChanEndpoint{Node: w.n, Pos: x.Pos(), Op: ChanEscape})
		}
	default:
		w.expr(x)
	}
}

// valueUse records the field read implied by using a field-held channel
// (send, receive, close) without treating it as a channel escape.
func (w *concWalker) valueUse(e ast.Expr) {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		w.fieldAccess(sel, AccessRead)
		w.expr(sel.X)
	}
}

// fieldAccess records one classified access to a module struct field.
// Fields of sync and sync/atomic types are excluded: their methods are
// the synchronization itself, tracked separately.
func (w *concWalker) fieldAccess(sel *ast.SelectorExpr, mode AccessMode) {
	if !w.emit {
		return
	}
	s, found := w.n.Pkg.Info.Selections[sel]
	if !found || s.Kind() != types.FieldVal {
		return
	}
	ownerPath, ownerType := namedPath(s.Recv())
	if ownerPath == "" || !w.module[ownerPath] {
		return
	}
	fieldVar, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	if tp, _ := namedPath(fieldVar.Type()); tp == "sync" || tp == "sync/atomic" {
		return
	}
	key := ownerPath + "." + ownerType + "." + fieldVar.Name()
	fi := w.conc.Fields[key]
	if fi == nil {
		fi = &FieldInfo{Key: key}
		w.conc.Fields[key] = fi
	}
	fi.Accesses = append(fi.Accesses, &FieldAccess{
		Node:     w.n,
		Pos:      sel.Sel.Pos(),
		Mode:     mode,
		Held:     cloneFacts(w.held),
		Confined: w.confinedBase(sel) || w.conc.onceConfined[w.n],
	})
}

// confinedBase reports whether the access chain is rooted at a
// function-local allocation.
func (w *concWalker) confinedBase(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v := lookupVar(w.n.Pkg, x)
			return v != nil && w.confined[v]
		default:
			return false
		}
	}
}

// chanEndpoint records a send/receive/close on a trackable channel.
func (w *concWalker) chanEndpoint(e ast.Expr, op ChanOp, pos token.Pos) {
	key, disp, ok := w.chanKey(e)
	if !ok {
		return
	}
	w.recordChan(key, disp, &ChanEndpoint{Node: w.n, Pos: pos, Op: op, NonBlocking: w.curNonBlocking})
}

func (w *concWalker) recordChan(key, display string, ep *ChanEndpoint) {
	if !w.emit {
		return
	}
	ci := w.conc.Chans[key]
	if ci == nil {
		ci = &ChanInfo{Key: key, Display: display}
		w.conc.Chans[key] = ci
	}
	ci.Endpoints = append(ci.Endpoints, ep)
}

// chanKey canonicalizes a channel expression to a module-wide identity:
// "pkgpath.Type.field" for struct fields, "pkgpath.var" for package-level
// variables, and a position-qualified local name for function-local
// channels (closures capture the same *types.Var, so literal nodes agree
// on the key).
func (w *concWalker) chanKey(e ast.Expr) (key, display string, ok bool) {
	e = ast.Unparen(e)
	t := w.pass.TypeOf(e)
	if t == nil {
		// The LHS ident of a := has no Types entry; its type lives on the
		// defined object.
		if id, isIdent := e.(*ast.Ident); isIdent {
			if v := lookupVar(w.n.Pkg, id); v != nil {
				t = v.Type()
			}
		}
	}
	if t == nil {
		return "", "", false
	}
	if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return "", "", false
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if s, found := w.n.Pkg.Info.Selections[e]; found && s.Kind() == types.FieldVal {
			ownerPath, ownerType := namedPath(s.Recv())
			if ownerPath == "" || !w.module[ownerPath] {
				return "", "", false
			}
			k := ownerPath + "." + ownerType + "." + e.Sel.Name
			return k, shortKeyName(k), true
		}
		if id, isIdent := e.X.(*ast.Ident); isIdent {
			if pn, isPkg := w.n.Pkg.Info.Uses[id].(*types.PkgName); isPkg {
				if !w.module[pn.Imported().Path()] {
					return "", "", false
				}
				k := pn.Imported().Path() + "." + e.Sel.Name
				return k, shortKeyName(k), true
			}
		}
	case *ast.Ident:
		v := lookupVar(w.n.Pkg, e)
		if v == nil {
			return "", "", false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			k := v.Pkg().Path() + "." + v.Name()
			return k, shortKeyName(k), true
		}
		pos := w.prog.Fset.Position(v.Pos())
		k := fmt.Sprintf("%s.%s@%s:%d", w.n.Pkg.Path, v.Name(), baseName(pos.Filename), pos.Line)
		return k, v.Name(), true
	}
	return "", "", false
}

// lookupVar resolves an identifier use or definition to its variable.
func lookupVar(pkg *Package, id *ast.Ident) *types.Var {
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// baseName is filepath.Base without importing path/filepath here.
func baseName(p string) string {
	if i := strings.LastIndexAny(p, `/\`); i >= 0 {
		return p[i+1:]
	}
	return p
}
