package lint

import "sort"

// AnalyzerUnguardedField flags shared struct fields that one function
// writes while holding a module-global mutex and another goroutine-
// reachable function reads or writes without it — the classic "the author
// knew this needed the lock, then forgot once" race. The guard is
// inferred per field: the lock key (per the lock-order canonicalization)
// held at the largest number of the field's plain writes. A finding means
// some access can run concurrently with a guarded write while holding
// nothing that orders the two.
//
// Over-approximations, by design: lock context is may-held and
// statement-ordered (a lock taken on any path to the access counts), the
// inferred guard is the coverage-majority lock rather than a proof, and
// functions whose name ends in "Locked" are assumed to run under a
// caller-held lock (the repo convention) and are never reported. Escaped
// or atomically accessed fields are skipped; a plain access racing an
// atomic one is `go test -race`'s to report.
var AnalyzerUnguardedField = &Analyzer{
	Name:       "unguarded-field",
	Doc:        "flags fields written under a mutex in one function but accessed without it in another",
	Severity:   SeverityWarn,
	RunProgram: runUnguardedField,
}

func runUnguardedField(pp *ProgramPass) {
	conc := pp.Prog.Concurrency()
	for _, key := range conc.FieldKeys() {
		fi := conc.Fields[key]
		accesses, writes, shared := classifyShared(conc, fi)
		if accesses == nil || len(writes) == 0 || !shared {
			continue
		}
		guard, covered := majorityGuard(writes)
		if guard == "" {
			continue
		}
		witness := pp.Prog.Fset.Position(covered.Pos)
		for _, a := range accesses {
			if a.Held[guard] || lockedByConvention(a.Node) {
				continue
			}
			pp.Reportf(a.Pos, "field %s is written under %s (%s:%d) but %s here without it; acquire %s or move the field to sync/atomic",
				shortKeyName(fi.Key), shortKeyName(guard), baseName(witness.Filename), witness.Line, a.Mode, shortKeyName(guard))
		}
	}
}

// classifyShared filters a field's accesses down to the plain,
// non-confined ones and decides whether the field is shared across
// goroutines: accessed from at least two functions, at least one of which
// may run on a spawned goroutine. Fields with escapes or atomic accesses
// return nil: an escaped field cannot be tracked, and a plain access
// racing an atomic one is the race detector's to report.
func classifyShared(conc *Concurrency, fi *FieldInfo) (accesses, writes []*FieldAccess, shared bool) {
	for _, a := range fi.Accesses {
		switch a.Mode {
		case AccessAtomic, AccessEscape:
			return nil, nil, false
		}
		if a.Confined {
			continue
		}
		accesses = append(accesses, a)
		if a.Mode == AccessWrite {
			writes = append(writes, a)
		}
	}
	nodes := make(map[*Node]bool)
	anyGo := false
	for _, a := range accesses {
		nodes[a.Node] = true
		if conc.GoReachable(a.Node) {
			anyGo = true
		}
	}
	return accesses, writes, len(nodes) >= 2 && anyGo
}

// majorityGuard picks the lock key held at the most plain writes (ties
// break lexicographically), returning the earliest write it covers as the
// witness. An empty key means no write holds any lock — the field is
// simply unsynchronized, which is not this check's shape.
func majorityGuard(writes []*FieldAccess) (string, *FieldAccess) {
	counts := make(map[string]int)
	for _, w := range writes {
		for key := range w.Held {
			counts[key]++
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := ""
	for _, k := range keys {
		if best == "" || counts[k] > counts[best] {
			best = k
		}
	}
	if best == "" {
		return "", nil
	}
	var witness *FieldAccess
	for _, w := range writes {
		if w.Held[best] && (witness == nil || w.Pos < witness.Pos) {
			witness = w
		}
	}
	return best, witness
}

// lockedByConvention reports whether the function declares, by the
// repo-wide "...Locked" suffix, that its caller holds the guard.
func lockedByConvention(n *Node) bool {
	if n.Decl == nil {
		return false
	}
	name := n.Decl.Name.Name
	return len(name) > len("Locked") && name[len(name)-len("Locked"):] == "Locked"
}
