package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the exported hot-set surface of the call graph. Its one
// consumer is internal/perfgate, which maps the compiler's optimization
// diagnostics (escape analysis, inlining, bounds-check elimination) onto
// the functions that actually run per served instance, so performance
// contracts gate only where regressions cost throughput.

// HotSet is the serving-reachability closure of the call graph: every
// function reachable from a set of entry points, with per-iteration
// context (does the function run once per served instance, or once per
// batch/request?) and the entry each function was discovered from.
type HotSet struct {
	// Entries are the roots, in deterministic graph order.
	Entries []*Node
	// prog is the graph the set was computed over.
	prog *Program
	// nodes maps each reachable function to its hot-set record.
	nodes map[*Node]*HotFunc
}

// HotFunc is one reachable function's hot-set record.
type HotFunc struct {
	Node *Node
	// PerIter reports that the function executes once per data-loop
	// iteration somewhere upstream — i.e. once per served instance, not
	// once per batch.
	PerIter bool
	// Entry is the entry point this function was first discovered from.
	Entry *Node
}

// Funcs returns every reachable function's record in deterministic
// (graph build) order.
func (h *HotSet) Funcs() []*HotFunc {
	out := make([]*HotFunc, 0, len(h.nodes))
	for _, n := range h.prog.Nodes {
		if hf := h.nodes[n]; hf != nil {
			out = append(out, hf)
		}
	}
	return out
}

// HotSet computes the reachability closure from the entry points
// selected by isEntry. Per-iteration context propagates along edges that
// sit inside a data loop (see CallSite.InDataLoop) and stays on
// downstream; `go` edges do not inherit it — a loop spawning N workers
// runs each worker body once per worker lifetime, not once per served
// instance.
func (p *Program) HotSet(isEntry func(*Node) bool) *HotSet {
	h := &HotSet{prog: p, nodes: make(map[*Node]*HotFunc)}
	var queue []*Node
	for _, n := range p.Nodes {
		if n.Body() == nil || !isEntry(n) {
			continue
		}
		h.Entries = append(h.Entries, n)
		h.nodes[n] = &HotFunc{Node: n, Entry: n}
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		uRec := h.nodes[u]
		for _, e := range u.Out {
			v := e.Callee
			iter := (uRec.PerIter || e.InDataLoop) && e.Kind != CallGo
			rec := h.nodes[v]
			if rec == nil {
				h.nodes[v] = &HotFunc{Node: v, PerIter: iter, Entry: uRec.Entry}
				queue = append(queue, v)
			} else if iter && !rec.PerIter {
				rec.PerIter = true
				queue = append(queue, v)
			}
		}
	}
	return h
}

// FullName returns the node's unique key: types.Func.FullName for
// declarations, the enclosing declaration's full name plus "$n" for
// literals. Keys are deterministic across runs, so external consumers
// (internal/perfgate's manifest) can use them as stable identifiers.
func (n *Node) FullName() string { return n.full }

// ServingEntry is the default entry-point predicate: exported Predict*
// declarations in serving-tier packages.
func ServingEntry(n *Node) bool {
	if n.Decl == nil {
		return false
	}
	if !pathHasAny(n.Pkg.Path, "serving") {
		return false
	}
	name := n.Decl.Name.Name
	return strings.HasPrefix(name, "Predict") && ast.IsExported(name)
}

// ClusterEntry selects the cluster tier's data-plane roots: predict
// routing and ring lookups in internal/cluster. These run once per
// proxied request, so the perf gate watches their diagnostics (the pick
// path is reached from Predict through the call graph).
func ClusterEntry(n *Node) bool {
	if n.Decl == nil || !pathHasAny(n.Pkg.Path, "internal/cluster") {
		return false
	}
	name := n.Decl.Name.Name
	if !ast.IsExported(name) {
		return false
	}
	return strings.HasPrefix(name, "Predict") || strings.HasPrefix(name, "Owner") || name == "Walk"
}

// WireEntry selects the predict codec in internal/wire: the JSON fast
// path and the frame encoders and decoders, whose loops run once per value
// of every request matrix. The handler and client around them are per
// request and stay out.
func WireEntry(n *Node) bool {
	if n.Decl == nil || !pathHasAny(n.Pkg.Path, "internal/wire") {
		return false
	}
	name := n.Decl.Name.Name
	return name == "parsePredict" || strings.HasSuffix(name, "Frame")
}

// KernelEntry selects the batch-prediction kernels themselves (Predict*
// methods in internal/ml), so callers gauging compiler optimizations see
// the kernels even when interface dispatch would hide an edge.
func KernelEntry(n *Node) bool {
	if n.Decl == nil || !pathHasAny(n.Pkg.Path, "internal/ml") {
		return false
	}
	return strings.HasPrefix(n.Decl.Name.Name, "Predict") && ast.IsExported(n.Decl.Name.Name)
}

// Span is a line range within one file, 1-based and inclusive.
type Span struct {
	File      string
	StartLine int
	EndLine   int
}

// DataLoopSpans returns the source spans of n's data loops — for
// statements with an init/cond/post clause and ranges over non-channel
// values, the loops that iterate per data element rather than per
// message. Nested function literals are excluded: they are their own
// graph nodes. Spans of nested loops overlap their parents'.
func (p *Program) DataLoopSpans(n *Node) []Span {
	body := n.Body()
	if body == nil {
		return nil
	}
	var out []Span
	add := func(m ast.Node) {
		start := p.Fset.Position(m.Pos())
		end := p.Fset.Position(m.End())
		out = append(out, Span{File: start.Filename, StartLine: start.Line, EndLine: end.Line})
	}
	ast.Inspect(body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			if m != n.Lit {
				return false
			}
		case *ast.ForStmt:
			if m.Cond != nil || m.Init != nil || m.Post != nil {
				add(m)
			}
		case *ast.RangeStmt:
			if t := n.Pkg.Info.Types[m.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); !isChan {
					add(m)
				}
			}
		}
		return true
	})
	return out
}
