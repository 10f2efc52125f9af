package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// This file builds the whole-module static call graph the interprocedural
// checks run on. Nodes are function declarations and function literals;
// edges are call sites. Static calls resolve through go/types; calls
// through interface values resolve by class-hierarchy analysis (CHA):
// every module type implementing the interface contributes its method as
// a possible callee. Function literals and method values passed as
// arguments become "callback" edges from the passing function — the
// conservative assumption that a registered callback runs in the
// registrant's context, which is what the lock-order and hot-path checks
// need. Strongly connected components (Tarjan) order the graph bottom-up
// so per-function summaries converge: callees are summarized before
// callers, and mutual recursion iterates inside its SCC to a fixpoint.

// CallKind classifies an edge for debugging and display.
type CallKind uint8

const (
	// CallStatic is a direct call to a known function.
	CallStatic CallKind = iota
	// CallInterface is a CHA-resolved call through an interface value.
	CallInterface
	// CallGo is a goroutine launch.
	CallGo
	// CallDefer is a deferred call.
	CallDefer
	// CallCallback is a function value passed as an argument (assumed
	// invoked by the receiver) or a literal escaping its function.
	CallCallback
)

func (k CallKind) String() string {
	switch k {
	case CallStatic:
		return "static"
	case CallInterface:
		return "interface"
	case CallGo:
		return "go"
	case CallDefer:
		return "defer"
	default:
		return "callback"
	}
}

// CallSite is one edge of the call graph.
type CallSite struct {
	Caller *Node
	Callee *Node
	// Pos is the call expression (or the literal, for escape edges).
	Pos  token.Pos
	Kind CallKind
}

// Node is one function in the call graph: a declaration or a literal.
type Node struct {
	// Func is the type-checker object for declared functions; nil for
	// literals.
	Func *types.Func
	// Decl is the declaration syntax (nil for literals).
	Decl *ast.FuncDecl
	// Lit is the literal syntax (nil for declarations).
	Lit *ast.FuncLit
	// Pkg is the package the body lives in.
	Pkg *Package
	// Name is a short display name ("serving.(*Runtime).Predict",
	// "serving.(*Runtime).line$1" for the first literal inside line).
	Name string
	// full is the unique lookup key: types.Func.FullName for declarations,
	// the enclosing declaration's full name plus "$n" for literals.
	full string
	// Out and In are the call edges, in deterministic build order.
	Out []*CallSite
	In  []*CallSite
}

// Body returns the function's statement body (nil for body-less decls).
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// Program is the whole-module view the interprocedural analyzers share:
// every non-test package, the call graph over them, and the lazily
// computed may-acquire summaries and goroutine topology built on it. A
// Program is built once per driver run, before the parallel per-package
// phase, and is read-only afterwards.
type Program struct {
	Fset *token.FileSet
	// Pkgs are the analyzed packages (non-test), in load order.
	Pkgs []*Package
	// Nodes lists every function, in deterministic build order.
	Nodes []*Node
	// SCCs are the strongly connected components in bottom-up order:
	// callees appear before callers, so summaries can be computed in one
	// forward sweep with a fixpoint inside each component.
	SCCs [][]*Node

	byFunc map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node
	byFull map[string]*Node

	// implCache memoizes CHA resolution per (interface, method).
	implCache map[implKey][]*types.Func
	// allNamed are the module's named non-interface types, sorted, for
	// CHA enumeration.
	allNamed []*types.Named

	summaryOnce sync.Once
	// mayAcquire is each function's may-acquire summary (lockorder.go).
	mayAcquire map[*Node]map[string]LockAcquire
	// concOnce guards the lazily built goroutine topology graph
	// (concurrency.go) the shared-state checks run on.
	concOnce sync.Once
	conc     *Concurrency
	// computations counts summary computations (including fixpoint
	// re-runs), so tests can prove the cache makes repeat runs free.
	computations int
}

type implKey struct {
	iface *types.Interface
	name  string
}

// buildProgram constructs the call graph over pkgs (test packages and
// file-less packages are skipped).
func buildProgram(fset *token.FileSet, pkgs []*Package) *Program {
	prog := &Program{
		Fset:      fset,
		byFunc:    make(map[*types.Func]*Node),
		byLit:     make(map[*ast.FuncLit]*Node),
		byFull:    make(map[string]*Node),
		implCache: make(map[implKey][]*types.Func),
	}
	for _, pkg := range pkgs {
		if pkg.IsTest || pkg.Types == nil || len(pkg.Files) == 0 {
			continue
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	prog.collectNamed()
	// First pass: create a node per declaration so static calls resolve
	// regardless of declaration order across packages.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &Node{Func: obj, Decl: fd, Pkg: pkg, Name: shortFuncName(obj), full: obj.FullName()}
				prog.Nodes = append(prog.Nodes, n)
				prog.byFunc[obj] = n
				prog.byFull[n.full] = n
			}
		}
	}
	// Second pass: walk bodies, creating literal nodes and edges.
	decls := append([]*Node(nil), prog.Nodes...)
	for _, n := range decls {
		b := &graphBuilder{prog: prog, pkg: n.Pkg, litSeq: map[*Node]int{}}
		b.walkFn(n, n.Decl.Body)
	}
	// Literals that never gained a caller escaped (returned, stored in a
	// struct, sent on a channel, ...). Assume conservatively that they
	// run in their enclosing function's context.
	for _, n := range prog.Nodes {
		if n.Lit != nil && len(n.In) == 0 {
			if owner := prog.enclosingDecl(n); owner != nil {
				prog.addEdge(owner, n, n.Lit.Pos(), CallCallback)
			}
		}
	}
	prog.SCCs = stronglyConnected(prog.Nodes, func(n *Node) []*Node {
		callees := make([]*Node, len(n.Out))
		for i, e := range n.Out {
			callees[i] = e.Callee
		}
		return callees
	})
	return prog
}

// NodeOf resolves a type-checker function object to its node. Objects
// from a re-type-check of the same sources (the in-package test
// augmentation) resolve by full name.
func (p *Program) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	if n := p.byFunc[fn]; n != nil {
		return n
	}
	return p.byFull[fn.FullName()]
}

// enclosingDecl finds the declared function whose body lexically contains
// the literal node.
func (p *Program) enclosingDecl(lit *Node) *Node {
	var best *Node
	for _, n := range p.Nodes {
		if n.Decl == nil || n.Pkg != lit.Pkg {
			continue
		}
		if n.Decl.Pos() <= lit.Lit.Pos() && lit.Lit.End() <= n.Decl.End() {
			if best == nil || n.Decl.Pos() >= best.Decl.Pos() {
				best = n
			}
		}
	}
	return best
}

func (p *Program) addEdge(from, to *Node, pos token.Pos, kind CallKind) {
	if from == nil || to == nil {
		return
	}
	s := &CallSite{Caller: from, Callee: to, Pos: pos, Kind: kind}
	from.Out = append(from.Out, s)
	to.In = append(to.In, s)
}

// collectNamed gathers every named, non-interface module type for CHA.
func (p *Program) collectNamed() {
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			p.allNamed = append(p.allNamed, named)
		}
	}
}

// implementers resolves an interface method call by CHA: every module
// type implementing iface contributes its method named name.
func (p *Program) implementers(iface *types.Interface, name string) []*types.Func {
	key := implKey{iface, name}
	if fns, ok := p.implCache[key]; ok {
		return fns
	}
	var fns []*types.Func
	for _, named := range p.allNamed {
		var recv types.Type = named
		if !types.Implements(named, iface) {
			if !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			recv = types.NewPointer(named)
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), name)
		if m, ok := obj.(*types.Func); ok {
			fns = append(fns, m)
		}
	}
	p.implCache[key] = fns
	return fns
}

// graphBuilder walks one declared function's body (and, recursively, its
// literals) recording edges.
type graphBuilder struct {
	prog *Program
	pkg  *Package
	// litSeq numbers literals per enclosing node for display names.
	litSeq map[*Node]int
	// localFns maps local variables single-assigned a function literal to
	// that literal's node; nil marks a poisoned (multiply assigned) var.
	localFns map[*types.Var]*Node
}

// walkFn records edges for the body owned by cur. Nested literals are
// separate nodes walked recursively.
func (b *graphBuilder) walkFn(cur *Node, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	if cur.Decl != nil {
		b.localFns = b.collectLocalFns(cur, body)
	}
	var stack []ast.Node
	ast.Inspect(body, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := m.(*ast.FuncLit); ok {
			ln := b.nodeForLit(cur, lit)
			b.walkFn(ln, lit.Body)
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			b.recordCall(cur, call, stack)
		}
		stack = append(stack, m)
		return true
	})
}

// collectLocalFns pre-scans for `f := func(...) {...}` bindings so calls
// through f (even ones textually before a reassignment) resolve. A
// variable assigned more than once is poisoned.
func (b *graphBuilder) collectLocalFns(cur *Node, body *ast.BlockStmt) map[*types.Var]*Node {
	out := make(map[*types.Var]*Node)
	assignments := make(map[*types.Var]int)
	record := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := b.pkg.Info.Defs[id]
		if obj == nil {
			obj = b.pkg.Info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		assignments[v]++
		if lit, ok := rhs.(*ast.FuncLit); ok {
			out[v] = b.nodeForLit(cur, lit)
		}
	}
	ast.Inspect(body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			if len(m.Lhs) == len(m.Rhs) {
				for i := range m.Lhs {
					record(m.Lhs[i], m.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(m.Names) == len(m.Values) {
				for i := range m.Names {
					record(m.Names[i], m.Values[i])
				}
			}
		}
		return true
	})
	for v, n := range assignments {
		if n > 1 {
			delete(out, v)
		}
	}
	return out
}

// nodeForLit returns (creating on demand) the node for a literal.
func (b *graphBuilder) nodeForLit(encl *Node, lit *ast.FuncLit) *Node {
	if n := b.prog.byLit[lit]; n != nil {
		return n
	}
	b.litSeq[encl]++
	n := &Node{
		Lit:  lit,
		Pkg:  b.pkg,
		Name: fmt.Sprintf("%s$%d", encl.Name, b.litSeq[encl]),
		full: fmt.Sprintf("%s$%d", encl.full, b.litSeq[encl]),
	}
	b.prog.Nodes = append(b.prog.Nodes, n)
	b.prog.byLit[lit] = n
	b.prog.byFull[n.full] = n
	return n
}

// recordCall resolves one call expression to zero or more edges, and
// records callback edges for function values among the arguments.
func (b *graphBuilder) recordCall(cur *Node, call *ast.CallExpr, stack []ast.Node) {
	kind := CallStatic
	if len(stack) > 0 {
		switch stack[len(stack)-1].(type) {
		case *ast.GoStmt:
			kind = CallGo
		case *ast.DeferStmt:
			kind = CallDefer
		}
	}
	for _, callee := range b.resolveCallees(cur, call) {
		k := kind
		if callee.viaInterface && kind == CallStatic {
			k = CallInterface
		}
		b.prog.addEdge(cur, callee.node, call.Pos(), k)
	}
	for _, arg := range call.Args {
		for _, t := range b.resolveFuncValue(cur, arg) {
			b.prog.addEdge(cur, t, arg.Pos(), CallCallback)
		}
	}
}

type calleeTarget struct {
	node         *Node
	viaInterface bool
}

// resolveCallees maps a call expression to its possible module callees.
func (b *graphBuilder) resolveCallees(cur *Node, call *ast.CallExpr) []calleeTarget {
	fun := ast.Unparen(call.Fun)
	// Generic instantiations: f[T](...).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	info := b.pkg.Info
	switch fun := fun.(type) {
	case *ast.FuncLit:
		return []calleeTarget{{node: b.nodeForLit(cur, fun)}}
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			if n := b.prog.NodeOf(obj); n != nil {
				return []calleeTarget{{node: n}}
			}
		case *types.Var:
			if n := b.localFns[obj]; n != nil {
				return []calleeTarget{{node: n}}
			}
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			return b.resolveMethod(s)
		}
		// Package-qualified call: pkg.F(...).
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if n := b.prog.NodeOf(obj); n != nil {
				return []calleeTarget{{node: n}}
			}
		}
	}
	return nil
}

// resolveMethod maps a method-value selection to concrete callees: the
// method itself for concrete receivers, CHA candidates for interfaces.
func (b *graphBuilder) resolveMethod(s *types.Selection) []calleeTarget {
	recv := s.Recv()
	if iface, ok := recv.Underlying().(*types.Interface); ok {
		var out []calleeTarget
		for _, m := range b.prog.implementers(iface, s.Obj().Name()) {
			if n := b.prog.NodeOf(m); n != nil {
				out = append(out, calleeTarget{node: n, viaInterface: true})
			}
		}
		return out
	}
	if m, ok := s.Obj().(*types.Func); ok {
		if n := b.prog.NodeOf(m); n != nil {
			return []calleeTarget{{node: n}}
		}
	}
	return nil
}

// resolveFuncValue maps an argument expression used as a function value
// (literal, function name, method value) to callback targets.
func (b *graphBuilder) resolveFuncValue(cur *Node, arg ast.Expr) []*Node {
	arg = ast.Unparen(arg)
	info := b.pkg.Info
	switch arg := arg.(type) {
	case *ast.FuncLit:
		return []*Node{b.nodeForLit(cur, arg)}
	case *ast.Ident:
		switch obj := info.Uses[arg].(type) {
		case *types.Func:
			if n := b.prog.NodeOf(obj); n != nil {
				return []*Node{n}
			}
		case *types.Var:
			if n := b.localFns[obj]; n != nil {
				return []*Node{n}
			}
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[arg]; ok && s.Kind() == types.MethodVal {
			var out []*Node
			for _, t := range b.resolveMethod(s) {
				out = append(out, t.node)
			}
			return out
		}
	}
	return nil
}

// stronglyConnected is Tarjan's algorithm over the graph reachable from
// roots. Roots and each successor list are visited in the order given,
// so the result is deterministic. Components come out in completion
// order: each after every component it reaches, i.e. callees before
// callers for the call graph.
func stronglyConnected[K comparable](roots []K, succ func(K) []K) [][]K {
	index := make(map[K]int)
	low := make(map[K]int)
	onStack := make(map[K]bool)
	var stack []K
	var sccs [][]K
	next := 0

	var connect func(k K)
	connect = func(k K) {
		index[k] = next
		low[k] = next
		next++
		stack = append(stack, k)
		onStack[k] = true
		for _, m := range succ(k) {
			if _, seen := index[m]; !seen {
				connect(m)
				low[k] = min(low[k], low[m])
			} else if onStack[m] {
				low[k] = min(low[k], index[m])
			}
		}
		if low[k] == index[k] {
			var scc []K
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == k {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, k := range roots {
		if _, seen := index[k]; !seen {
			connect(k)
		}
	}
	return sccs
}

// shortFuncName renders a compact display name: last package path
// segment, receiver without package qualifiers, method name.
func shortFuncName(fn *types.Func) string {
	pkgSeg := ""
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		pkgSeg = path[strings.LastIndex(path, "/")+1:]
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" })
		return fmt.Sprintf("%s.(%s).%s", pkgSeg, recv, fn.Name())
	}
	if pkgSeg == "" {
		return fn.Name()
	}
	return pkgSeg + "." + fn.Name()
}

// shortKeyName compacts a fully qualified lock key ("repro/internal/
// serving.Runtime.mu") to its display form ("serving.Runtime.mu").
func shortKeyName(key string) string {
	return key[strings.LastIndex(key, "/")+1:]
}
