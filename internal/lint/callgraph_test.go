package lint

import (
	"strings"
	"testing"
	"time"
)

// loadGraphProgram builds the call graph over the dedicated fixture
// package (testdata/graph, outside the golden corpus).
func loadGraphProgram(t testing.TB) *Program {
	t.Helper()
	loader := &Loader{Dir: ".", Tests: false}
	pkgs, err := loader.Load([]string{"./testdata/graph/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	return buildProgram(loader.Fset(), pkgs)
}

// nodeByName finds a node by its display name.
func nodeByName(t testing.TB, prog *Program, name string) *Node {
	t.Helper()
	for _, n := range prog.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("node %q not in graph (have %d nodes)", name, len(prog.Nodes))
	return nil
}

// edgesTo returns caller's out-edges landing on the named callee.
func edgesTo(caller *Node, callee string) []*CallSite {
	var out []*CallSite
	for _, e := range caller.Out {
		if e.Callee.Name == callee {
			out = append(out, e)
		}
	}
	return out
}

// TestCallGraphInterfaceDispatch: a call through an interface value must
// fan out to every module implementation (CHA), marked as interface
// edges.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog := loadGraphProgram(t)
	total := nodeByName(t, prog, "graph.total")
	for _, impl := range []string{"graph.(circle).area", "graph.(square).area"} {
		es := edgesTo(total, impl)
		if len(es) != 1 {
			t.Fatalf("edges total -> %s = %d, want 1", impl, len(es))
		}
		if es[0].Kind != CallInterface {
			t.Errorf("total -> %s kind = %s, want interface", impl, es[0].Kind)
		}
	}
}

// TestCallGraphMethodValue: a bound method passed as an argument becomes
// a callback edge from the passing function.
func TestCallGraphMethodValue(t *testing.T) {
	prog := loadGraphProgram(t)
	use := nodeByName(t, prog, "graph.useMethodValue")
	if es := edgesTo(use, "graph.each"); len(es) != 1 || es[0].Kind != CallStatic {
		t.Errorf("useMethodValue -> each: %v", es)
	}
	es := edgesTo(use, "graph.(circle).scale")
	if len(es) != 1 {
		t.Fatalf("edges useMethodValue -> scale = %d, want 1", len(es))
	}
	if es[0].Kind != CallCallback {
		t.Errorf("method-value edge kind = %s, want callback", es[0].Kind)
	}
}

// TestCallGraphClosures: a literal bound to a local and called yields a
// static edge; an escaping literal yields a callback edge from its
// enclosing function.
func TestCallGraphClosures(t *testing.T) {
	prog := loadGraphProgram(t)
	runs := nodeByName(t, prog, "graph.runsClosure")
	if es := edgesTo(runs, "graph.runsClosure$1"); len(es) != 1 || es[0].Kind != CallStatic {
		t.Errorf("runsClosure -> its literal: %v", es)
	}
	makes := nodeByName(t, prog, "graph.makesClosure")
	if es := edgesTo(makes, "graph.makesClosure$1"); len(es) != 1 || es[0].Kind != CallCallback {
		t.Errorf("makesClosure -> escaping literal: %v", es)
	}
}

// TestCallGraphSCCMutualRecursion: even/odd form one strongly connected
// component, and the bottom-up summary sweep converges over it.
func TestCallGraphSCCMutualRecursion(t *testing.T) {
	prog := loadGraphProgram(t)
	even := nodeByName(t, prog, "graph.even")
	odd := nodeByName(t, prog, "graph.odd")
	var home []*Node
	for _, scc := range prog.SCCs {
		for _, n := range scc {
			if n == even {
				home = scc
			}
		}
	}
	if len(home) != 2 {
		t.Fatalf("even's SCC has %d members, want 2 (even+odd)", len(home))
	}
	if home[0] != odd && home[1] != odd {
		t.Fatal("odd not in even's SCC")
	}
	prog.EnsureSummaries()
	_, evenDone := prog.mayAcquire[even]
	_, oddDone := prog.mayAcquire[odd]
	if !evenDone || !oddDone {
		t.Fatal("mutual-recursion SCC has no converged summaries")
	}
}

// TestSummaryLockAcquire: the may-acquire effect propagates from the
// direct acquirer into its callers with a via chain.
func TestSummaryLockAcquire(t *testing.T) {
	prog := loadGraphProgram(t)
	prog.EnsureSummaries()
	may := prog.mayAcquire[nodeByName(t, prog, "graph.pokesTwice")]
	found := false
	for key, acq := range may {
		if strings.HasSuffix(key, "graph.box.mu") {
			found = true
			if !strings.Contains(acq.Via, "poke") {
				t.Errorf("via chain %q does not name the acquiring callee", acq.Via)
			}
		}
	}
	if !found {
		t.Fatalf("pokesTwice may-acquire summary lacks box.mu: %v", may)
	}
}

// TestSummaryCacheReuse: the second EnsureSummaries call must be a pure
// cache hit — zero recomputation, and nowhere near the cold cost.
func TestSummaryCacheReuse(t *testing.T) {
	prog := loadGraphProgram(t)
	coldStart := time.Now()
	prog.EnsureSummaries()
	cold := time.Since(coldStart)
	n := prog.computations
	if n == 0 {
		t.Fatal("cold run computed no summaries")
	}
	warmStart := time.Now()
	prog.EnsureSummaries()
	warm := time.Since(warmStart)
	if prog.computations != n {
		t.Errorf("warm run recomputed summaries: %d -> %d", n, prog.computations)
	}
	if warm > cold*2+time.Millisecond {
		t.Errorf("warm EnsureSummaries took %v, cold %v; cache not effective", warm, cold)
	}
}

// BenchmarkInterprocedural measures the whole interprocedural layer over
// the full module: graph construction plus the bottom-up summary sweep.
func BenchmarkInterprocedural(b *testing.B) {
	root, err := moduleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	loader := &Loader{Dir: root, Tests: true}
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := buildProgram(loader.Fset(), pkgs)
		prog.EnsureSummaries()
	}
}
