package scenario

import (
	"encoding/json"
	"slices"
	"testing"
)

// builtin returns the named built-in or fails the test.
func builtin(t *testing.T, name string) Scenario {
	t.Helper()
	for _, sc := range Builtins() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("no built-in %q", name)
	return Scenario{}
}

// TestBuiltinLibraryShape holds the library to what the runner relies
// on: every built-in validates, names are unique and sorted, the paper's
// two use cases are wired to their workloads, and a caller cannot change
// the list another caller gets.
func TestBuiltinLibraryShape(t *testing.T) {
	all := Builtins()
	if len(all) != 8 {
		t.Fatalf("%d built-ins, want 8", len(all))
	}
	names := make([]string, len(all))
	for i, sc := range all {
		if err := sc.Validate(); err != nil {
			t.Errorf("built-in %q invalid: %v", sc.Name, err)
		}
		names[i] = sc.Name
	}
	if !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
		t.Fatalf("names %v are not unique and sorted", names)
	}

	uc1, uc2 := builtin(t, "uc1-fall-poison"), builtin(t, "uc2-net-fgsm")
	if uc1.UseCase != "uc1" || uc1.Workload != WorkloadFall {
		t.Errorf("uc1 scenario misconfigured: usecase=%q workload=%q", uc1.UseCase, uc1.Workload)
	}
	if uc2.UseCase != "uc2" || uc2.Workload != WorkloadNetTraffic {
		t.Errorf("uc2 scenario misconfigured: usecase=%q workload=%q", uc2.UseCase, uc2.Workload)
	}

	// Write through every level a caller could reach — the slice, a
	// scenario, its phases and their faults — and compare a deep
	// rendering of the library before and after.
	render := func() string {
		buf, err := json.Marshal(Builtins())
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	before := render()
	all[0].Name = "changed"
	all[0].Phases[0].Shape.BaseRPS = -1
	for _, sc := range all {
		for _, p := range sc.Phases {
			if p.Fault != nil {
				p.Fault.Rate = -1
			}
		}
	}
	if render() != before {
		t.Fatal("a caller's write reached the library")
	}
}
