package lint

import (
	"strings"
	"testing"
)

// loadConcProgram builds the topology graph over the dedicated fixture
// package (testdata/conc, outside the golden corpus).
func loadConcProgram(t testing.TB) (*Program, *Concurrency) {
	t.Helper()
	loader := &Loader{Dir: ".", Tests: false}
	pkgs, err := loader.Load([]string{"./testdata/conc/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	prog := buildProgram(loader.Fset(), pkgs)
	return prog, prog.Concurrency()
}

// fieldBySuffix finds the tracked field whose key ends in suffix.
func fieldBySuffix(t testing.TB, conc *Concurrency, suffix string) *FieldInfo {
	t.Helper()
	for _, key := range conc.FieldKeys() {
		if strings.HasSuffix(key, suffix) {
			return conc.Fields[key]
		}
	}
	t.Fatalf("no tracked field matches %q (have %v)", suffix, conc.FieldKeys())
	return nil
}

// chanBySuffix finds the tracked channel whose key ends in suffix (local
// keys are position-qualified, so match on the prefix before the @).
func chanBySuffix(t testing.TB, conc *Concurrency, suffix string) *ChanInfo {
	t.Helper()
	for _, key := range conc.ChanKeys() {
		base, _, _ := strings.Cut(key, "@")
		if strings.HasSuffix(base, suffix) {
			return conc.Chans[key]
		}
	}
	t.Fatalf("no tracked channel matches %q (have %v)", suffix, conc.ChanKeys())
	return nil
}

// TestConcurrencySpawnSites: every go statement must appear as a spawn
// site — the named-function spawn and both literals.
func TestConcurrencySpawnSites(t *testing.T) {
	_, conc := loadConcProgram(t)
	got := make(map[string]bool)
	for _, site := range conc.SpawnSites {
		got[site.Callee.Name] = true
	}
	for _, want := range []string{"conc.worker", "conc.launch$1", "conc.pipe$1"} {
		if !got[want] {
			t.Errorf("spawn sites missing callee %s (have %v)", want, got)
		}
	}
	if len(conc.SpawnSites) != 3 {
		t.Errorf("spawn sites = %d, want 3 (%v)", len(conc.SpawnSites), got)
	}
}

// TestConcurrencyGoReachable: functions called (transitively) from a
// spawned goroutine are go-reachable; the spawning caller is not.
func TestConcurrencyGoReachable(t *testing.T) {
	prog, conc := loadConcProgram(t)
	wantReachable := map[string]bool{
		"conc.worker":    true,
		"conc.(*S).set":  true,
		"conc.(*S).peek": true,
		"conc.(*S).bump": true,
		"conc.launch":    false,
		"conc.pipe":      false,
		"conc.New":       false,
	}
	for name, want := range wantReachable {
		n := nodeByName(t, prog, name)
		if got := conc.GoReachable(n); got != want {
			t.Errorf("GoReachable(%s) = %v, want %v", name, got, want)
		}
	}
}

// TestConcurrencyMutexOwnership: the guarded field's write under mu
// carries the lock in its held set, the unguarded read does not, and the
// constructor write is confined.
func TestConcurrencyMutexOwnership(t *testing.T) {
	_, conc := loadConcProgram(t)
	fi := fieldBySuffix(t, conc, "conc.S.guarded")
	if len(fi.Accesses) != 3 {
		t.Fatalf("guarded accesses = %d, want 3", len(fi.Accesses))
	}
	for _, a := range fi.Accesses {
		switch {
		case strings.HasSuffix(a.Node.Name, ".set"):
			if a.Mode != AccessWrite {
				t.Errorf("set access mode = %s, want written", a.Mode)
			}
			held := false
			for k := range a.Held {
				if strings.HasSuffix(k, "conc.S.mu") {
					held = true
				}
			}
			if !held {
				t.Errorf("write in set does not hold mu (held %v)", a.Held)
			}
		case strings.HasSuffix(a.Node.Name, ".peek"):
			if a.Mode != AccessRead || len(a.Held) != 0 {
				t.Errorf("peek access = %s holding %v, want bare read", a.Mode, a.Held)
			}
		case a.Node.Name == "conc.New":
			if !a.Confined {
				t.Error("constructor write not marked confined")
			}
		default:
			t.Errorf("unexpected access in %s", a.Node.Name)
		}
	}
}

// TestConcurrencyMixedAccess: the count field records the atomic bump
// and the plain read as distinct modes — the atomic mode is how
// unguarded-field knows to skip the field.
func TestConcurrencyMixedAccess(t *testing.T) {
	_, conc := loadConcProgram(t)
	fi := fieldBySuffix(t, conc, "conc.S.count")
	var atomics, plains int
	for _, a := range fi.Accesses {
		switch a.Mode {
		case AccessAtomic:
			atomics++
		case AccessRead:
			if !a.Confined {
				plains++
			}
		}
	}
	if atomics != 1 || plains != 1 {
		t.Errorf("count accesses: %d atomic, %d plain reads; want 1 and 1", atomics, plains)
	}
}

// TestConcurrencyChanPairing: the local pipe channel records its make
// (unbuffered), the send from the spawned literal, and the receive in
// the creating function; the stop field channel records its
// composite-literal make and the literal's receive.
func TestConcurrencyChanPairing(t *testing.T) {
	_, conc := loadConcProgram(t)
	ci := chanBySuffix(t, conc, ".ch")
	ops := make(map[ChanOp]string)
	for _, ep := range ci.Endpoints {
		ops[ep.Op] = ep.Node.Name
		if ep.Op == ChanMake && !ep.Unbuffered {
			t.Error("pipe make not marked unbuffered")
		}
	}
	if len(ci.Endpoints) != 3 {
		t.Fatalf("pipe endpoints = %d, want 3 (%v)", len(ci.Endpoints), ops)
	}
	if ops[ChanMake] != "conc.pipe" || ops[ChanSend] != "conc.pipe$1" || ops[ChanRecv] != "conc.pipe" {
		t.Errorf("pipe endpoints misattributed: %v", ops)
	}

	stop := fieldChan(t, conc, "conc.S.stop")
	sops := make(map[ChanOp]bool)
	for _, ep := range stop.Endpoints {
		sops[ep.Op] = true
	}
	if !sops[ChanMake] || !sops[ChanRecv] {
		t.Errorf("stop endpoints missing make or recv: %v", sops)
	}
}

// fieldChan finds a channel tracked under a struct-field key.
func fieldChan(t testing.TB, conc *Concurrency, suffix string) *ChanInfo {
	t.Helper()
	for _, key := range conc.ChanKeys() {
		if strings.HasSuffix(key, suffix) {
			return conc.Chans[key]
		}
	}
	t.Fatalf("no tracked channel matches %q (have %v)", suffix, conc.ChanKeys())
	return nil
}
