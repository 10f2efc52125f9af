package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes per-function summaries over the call graph, bottom
// up in SCC order (callees before callers, fixpoint inside components so
// mutual recursion converges). Summaries abstract a call's effect for
// the interprocedural checks: which module-global locks the callee may
// acquire (lock-order), which locks it returns holding or releases (lock
// wrappers), whether each parameter is actually consumed (precise
// ownership transfer for ctx-leak/body-leak), and how taint flows from
// parameters to returns and filesystem sinks (taint-path).

// LockAcquire describes one lock a function may acquire, directly or
// through its callees.
type LockAcquire struct {
	// Pos is the acquisition site (in the transitively acquiring function).
	Pos token.Pos
	// Via is the call chain from this function to the acquire, "" when
	// direct ("line" or "line -> runWorker").
	Via string
	// Read marks acquisitions that are only ever RLocks.
	Read bool
}

// SinkFlow records one parameter-to-sink flow inside a function.
type SinkFlow struct {
	// Sink names the sensitive call ("os.Open", "serving.(*Registry).Save").
	Sink string
	// Pos is the sink call site in the flowing function.
	Pos token.Pos
	// Via is the helper chain from this function to the sink, "" when the
	// sink call is direct.
	Via string
}

// Summary is the interprocedural abstract of one function.
type Summary struct {
	node *Node
	// MayAcquire maps module-global lock keys to how this function (or a
	// transitive callee) may acquire them during a call.
	MayAcquire map[string]LockAcquire
	// HeldAtExit are locks this function returns holding (lock wrappers).
	HeldAtExit map[string]token.Pos
	// ReleasedAtExit are locks this function releases without acquiring
	// (unlock wrappers).
	ReleasedAtExit map[string]bool
	// ParamConsumed reports, per parameter, whether the function may use
	// the value at all: called, stored, returned, captured, or forwarded
	// to a consuming callee. A false entry proves the callee ignores the
	// argument, so passing a resource there cannot discharge its
	// obligation.
	ParamConsumed []bool
	// ParamToReturn reports, per parameter, whether its taint can reach a
	// return value.
	ParamToReturn []bool
	// ParamSinks lists, per parameter, the sensitive sinks its taint can
	// reach inside this function or its callees.
	ParamSinks [][]SinkFlow
}

// EnsureSummaries computes every function summary bottom-up. Repeat
// calls are free: the sync.Once cache keeps warm driver runs from
// re-walking the module.
func (p *Program) EnsureSummaries() {
	p.summaryOnce.Do(func() {
		p.summaries = make(map[*Node]*Summary, len(p.Nodes))
		for _, scc := range p.SCCs {
			for _, n := range scc {
				p.summaries[n] = &Summary{node: n}
			}
			// Fixpoint inside the component: mutual recursion converges
			// because every summary field grows monotonically.
			for round := 0; ; round++ {
				changed := false
				for _, n := range scc {
					if p.computeSummary(n) {
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

// computeSummary recomputes n's summary from its body and its callees'
// current summaries, reporting whether anything changed.
func (p *Program) computeSummary(n *Node) bool {
	p.computations++
	s := p.summaries[n]
	changed := false

	locks := p.computeLocks(n)
	if !equalAcquires(s.MayAcquire, locks.may) {
		s.MayAcquire = locks.may
		changed = true
	}
	if !equalFacts(s.HeldAtExit, locks.held) {
		s.HeldAtExit = locks.held
		changed = true
	}
	if !equalFacts(s.ReleasedAtExit, locks.released) {
		s.ReleasedAtExit = locks.released
		changed = true
	}

	consumed := p.computeParamConsumed(n)
	if !equalBools(s.ParamConsumed, consumed) {
		s.ParamConsumed = consumed
		changed = true
	}

	toReturn, sinks := p.computeParamTaint(n)
	if !equalBools(s.ParamToReturn, toReturn) {
		s.ParamToReturn = toReturn
		changed = true
	}
	if !equalSinks(s.ParamSinks, sinks) {
		s.ParamSinks = sinks
		changed = true
	}
	return changed
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

func equalSinks(a, b [][]SinkFlow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].Sink != b[i][j].Sink || a[i][j].Via != b[i][j].Via {
				return false
			}
		}
	}
	return true
}

// --- lock effects ---

type lockEffects struct {
	may      map[string]LockAcquire
	held     map[string]token.Pos
	released map[string]bool
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

// globalLockOp recognizes a sync.(RW)Mutex (R)Lock/(R)Unlock call with a
// canonicalizable receiver.
func globalLockOp(pkg *Package, call *ast.CallExpr) (globalLock, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return globalLock{}, false
	}
	var acquire, read bool
	switch sel.Sel.Name {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return globalLock{}, false
	}
	s, found := pkg.Info.Selections[sel]
	if !found || s.Kind() != types.MethodVal {
		return globalLock{}, false
	}
	if obj := s.Obj(); obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return globalLock{}, false
	}
	key, ok := globalLockKey(pkg, sel.X)
	if !ok {
		return globalLock{}, false
	}
	return globalLock{key: key, acquire: acquire, read: read}, true
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

// computeLocks derives a function's lock effects from its body and its
// callees' current summaries.
func (p *Program) computeLocks(n *Node) lockEffects {
	eff := lockEffects{
		may:      make(map[string]LockAcquire),
		held:     make(map[string]token.Pos),
		released: make(map[string]bool),
	}
	body := n.Body()
	if body == nil {
		return eff
	}
	directAcquire := make(map[string]token.Pos)
	directRead := make(map[string]bool)
	directUnlock := make(map[string]bool)
	deferred := make(map[string]bool)

	var deferDepth int
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // separate node; effects arrive via edges
			case *ast.DeferStmt:
				deferDepth++
				walk(m.Call)
				deferDepth--
				return false
			case *ast.CallExpr:
				op, ok := globalLockOp(n.Pkg, m)
				if !ok {
					return true
				}
				if op.acquire {
					if _, seen := directAcquire[op.key]; !seen {
						directAcquire[op.key] = m.Pos()
						directRead[op.key] = op.read
					} else if !op.read {
						directRead[op.key] = false
					}
				} else if deferDepth > 0 {
					deferred[op.key] = true
				} else {
					directUnlock[op.key] = true
				}
			}
			return true
		})
	}
	walk(body)

	for key, pos := range directAcquire {
		eff.may[key] = LockAcquire{Pos: pos, Read: directRead[key]}
		if !directUnlock[key] && !deferred[key] {
			eff.held[key] = pos
		}
	}
	for key := range directUnlock {
		if _, acquired := directAcquire[key]; !acquired {
			eff.released[key] = true
		}
	}

	// Merge callee effects. Goroutine launches run concurrently, not
	// under the caller's locks, so go edges do not contribute.
	for _, e := range n.Out {
		if e.Kind == CallGo {
			continue
		}
		callee := p.summaries[e.Callee]
		if callee == nil {
			continue
		}
		for key, acq := range callee.MayAcquire {
			via := e.Callee.Name
			if acq.Via != "" {
				via = via + " -> " + acq.Via
			}
			if strings.Count(via, "->") > 5 {
				continue // cap witness chains; the cycle is already visible
			}
			if old, seen := eff.may[key]; seen {
				if old.Read && !acq.Read {
					old.Read = false
					eff.may[key] = old
				}
			} else {
				eff.may[key] = LockAcquire{Pos: e.Pos, Via: via, Read: acq.Read}
			}
		}
	}
	return eff
}

// --- parameter consumption ---

// paramVars flattens a function's parameter objects in signature order.
func paramVars(pkg *Package, ft *ast.FuncType) []*types.Var {
	var out []*types.Var
	if ft == nil || ft.Params == nil {
		return out
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			v, _ := pkg.Info.Defs[name].(*types.Var)
			out = append(out, v) // nil for _ params keeps indexes aligned
		}
		if len(field.Names) == 0 {
			out = append(out, nil) // anonymous parameter
		}
	}
	return out
}

// computeParamConsumed decides, per parameter, whether the function may
// consume the value. Only a proof of ignorance returns false: the sole
// uses are forwarding the parameter to module callees that themselves
// ignore it.
func (p *Program) computeParamConsumed(n *Node) []bool {
	params := paramVars(n.Pkg, n.FuncType())
	consumed := make([]bool, len(params))
	body := n.Body()
	if body == nil {
		for i := range consumed {
			consumed[i] = true // no body: assume the worst
		}
		return consumed
	}
	index := make(map[*types.Var]int, len(params))
	for i, v := range params {
		if v == nil {
			continue // blank/anonymous parameters are trivially unconsumed
		}
		index[v] = i
	}
	if len(index) == 0 {
		return consumed
	}

	// forwarded records identifiers that appear as exact top-level
	// arguments of a call, with the call and argument position.
	type forward struct {
		call *ast.CallExpr
		arg  int
	}
	forwarded := make(map[*ast.Ident]forward)
	litDepth := 0
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				// Uses inside a literal are captures: the closure may run
				// later, so the value is consumed.
				litDepth++
				walk(m.Body)
				litDepth--
				return false
			case *ast.CallExpr:
				if litDepth == 0 {
					for i, arg := range m.Args {
						if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
							forwarded[id] = forward{call: m, arg: i}
						}
					}
				}
			case *ast.Ident:
				if pi, ok := index[lookupVar(n.Pkg, m)]; ok && litDepth > 0 {
					consumed[pi] = true
				}
			}
			return true
		})
	}
	walk(body)

	ast.Inspect(body, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		pi, ok := index[lookupVar(n.Pkg, id)]
		if !ok || consumed[pi] {
			return true
		}
		fw, isForward := forwarded[id]
		if !isForward {
			consumed[pi] = true
			return true
		}
		if !p.forwardUnconsumed(n, fw.call, fw.arg) {
			consumed[pi] = true
		}
		return true
	})
	return consumed
}

// lookupVar resolves an identifier use to its variable.
func lookupVar(pkg *Package, id *ast.Ident) *types.Var {
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// forwardUnconsumed reports whether passing a value as argument arg of
// call provably hands it to a callee that ignores it.
func (p *Program) forwardUnconsumed(n *Node, call *ast.CallExpr, arg int) bool {
	return p.ArgIgnored(n.Pkg.Info, call, arg)
}

// ArgIgnored reports whether passing a value as argument arg of call
// provably hands it to a module callee that never touches it, per the
// ParamConsumed summaries. The resource-leak checks use this to keep an
// obligation alive across helper calls that cannot discharge it.
// Anything dynamic, variadic, external, or unknown reports false.
func (p *Program) ArgIgnored(info *types.Info, call *ast.CallExpr, arg int) bool {
	callee := p.staticCalleeInfo(info, call)
	if callee == nil {
		return false
	}
	sig := calleeSignature(callee)
	if sig == nil || sig.Variadic() || sig.Params().Len() != len(call.Args) {
		return false
	}
	sum := p.summaries[callee]
	if sum == nil || arg >= len(sum.ParamConsumed) {
		return false
	}
	return !sum.ParamConsumed[arg]
}

// argIgnored adapts Program.ArgIgnored to a per-package Pass. Without a
// program view it reports false, preserving the conservative
// intraprocedural behavior (handing off always discharges).
func argIgnored(p *Pass, call *ast.CallExpr, arg int) bool {
	return p.Prog != nil && p.Prog.ArgIgnored(p.Info, call, arg)
}

// staticCallee resolves a call to its single static module callee, or
// nil when the target is dynamic, external, or overloaded.
func (p *Program) staticCallee(pkg *Package, call *ast.CallExpr) *Node {
	return p.staticCalleeInfo(pkg.Info, call)
}

func (p *Program) staticCalleeInfo(info *types.Info, call *ast.CallExpr) *Node {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok {
			return p.NodeOf(obj)
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv().Underlying()) {
				return nil
			}
			if m, ok := s.Obj().(*types.Func); ok {
				return p.NodeOf(m)
			}
			return nil
		}
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return p.NodeOf(obj)
		}
	}
	return nil
}

func calleeSignature(n *Node) *types.Signature {
	if n.Func != nil {
		sig, _ := n.Func.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil {
		if tv, ok := n.Pkg.Info.Types[n.Lit]; ok {
			sig, _ := tv.Type.(*types.Signature)
			return sig
		}
	}
	return nil
}

// --- parameter taint ---

// computeParamTaint seeds each parameter with its own taint bit, runs
// the shared propagation engine, and reads back which bits reach returns
// and sinks.
func (p *Program) computeParamTaint(n *Node) ([]bool, [][]SinkFlow) {
	params := paramVars(n.Pkg, n.FuncType())
	toReturn := make([]bool, len(params))
	sinks := make([][]SinkFlow, len(params))
	body := n.Body()
	if body == nil || len(params) == 0 || len(params) > 60 {
		return toReturn, sinks
	}
	eng := &taintEngine{pkg: n.Pkg, prog: p}
	seeded := false
	for i, v := range params {
		if v == nil || !taintableType(v.Type()) {
			continue
		}
		eng.seedVar(v, 1<<uint(i))
		seeded = true
	}
	if !seeded {
		return toReturn, sinks
	}
	eng.propagate(body)

	// Returns: explicit results and named result variables.
	resultVars := make(map[*types.Var]bool)
	if ft := n.FuncType(); ft != nil && ft.Results != nil {
		for _, field := range ft.Results.List {
			for _, name := range field.Names {
				if v, ok := n.Pkg.Info.Defs[name].(*types.Var); ok {
					resultVars[v] = true
				}
			}
		}
	}
	var returnMask uint64
	inspectShallow(body, func(m ast.Node) bool {
		if ret, ok := m.(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				returnMask |= eng.exprMask(res)
			}
		}
		return true
	})
	for v := range resultVars {
		returnMask |= eng.vars[v]
	}
	for i := range params {
		if returnMask&(1<<uint(i)) != 0 {
			toReturn[i] = true
		}
	}
	eng.scanSinks(body, func(sink string, pos token.Pos, mask uint64, via string) {
		for i := range params {
			if mask&(1<<uint(i)) != 0 {
				sinks[i] = append(sinks[i], SinkFlow{Sink: sink, Pos: pos, Via: via})
			}
		}
	})
	return toReturn, sinks
}

// taintableType limits seeding to values that can carry a path: strings,
// string containers, and anything stringly derived.
func taintableType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice:
		return taintableType(u.Elem())
	case *types.Map:
		return taintableType(u.Elem()) || taintableType(u.Key())
	case *types.Pointer:
		return taintableType(u.Elem())
	case *types.Struct, *types.Interface:
		return true // url.URL, fmt.Stringer arguments, request wrappers
	}
	return false
}
