package scenario

import "testing"

func TestChaosDeterministicDecisions(t *testing.T) {
	roll := func() []decision {
		core := newChaosCore(11)
		core.SetFault(&Fault{Kind: FaultErrorBurst, Rate: 0.5})
		out := make([]decision, 40)
		for i := range out {
			out[i] = core.decide()
		}
		return out
	}
	a, b := roll(), roll()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}
