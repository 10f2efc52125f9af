package scenario

import (
	"context"
	"errors"
	"testing"
	"time"
)

// servingMember names the live member the routing key reaches now, or ""
// when the whole tier is down.
func servingMember(vc *VirtualCluster) string {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if idx, _ := vc.pickLocked(); idx >= 0 {
		return vc.ids[idx]
	}
	return ""
}

// TestVirtualClusterFailover drives the tier directly: killing the shard
// owner reroutes every subsequent request, the kill sticks across phase
// boundaries (SetFault(nil)), and only a restart revives the member.
func TestVirtualClusterFailover(t *testing.T) {
	vc := NewVirtualCluster(3, 1, "model")
	owner := servingMember(vc)
	if owner == "" {
		t.Fatal("fresh cluster has no owner")
	}
	if _, err := vc.Sample(10); err != nil {
		t.Fatalf("warm sample: %v", err)
	}
	if got := vc.Stats().Rerouted; got != 0 {
		t.Fatalf("%d reroutes before any kill", got)
	}

	vc.SetFault(&Fault{Kind: FaultReplicaKill})
	next := servingMember(vc)
	if next == owner || next == "" {
		t.Fatalf("owner after kill: %q (was %q)", next, owner)
	}
	if _, err := vc.Sample(10); err != nil {
		t.Fatalf("sample after kill: %v", err)
	}
	vc.SetFault(nil) // phase boundary: the kill must persist
	if got := servingMember(vc); got != next {
		t.Fatalf("kill did not survive SetFault(nil): owner %q, want %q", got, next)
	}
	if _, err := vc.Sample(10); err != nil {
		t.Fatal(err)
	}
	if got := vc.Stats().Rerouted; got != 2 {
		t.Fatalf("rerouted = %d after two off-owner samples, want 2", got)
	}

	vc.SetFault(&Fault{Kind: FaultReplicaRestart})
	if got := servingMember(vc); got != owner {
		t.Fatalf("restart did not restore the owner: %q, want %q", got, owner)
	}

	// Killing the owner three times takes the whole tier down: every
	// request is then refused with ErrInjectedReset, counted in Reset.
	for i := 0; i < 3; i++ {
		vc.SetFault(&Fault{Kind: FaultReplicaKill})
	}
	if got := servingMember(vc); got != "" {
		t.Fatalf("dead tier still names owner %q", got)
	}
	before := vc.Stats()
	if _, err := vc.Sample(10); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("sample on a fully dead tier: %v, want ErrInjectedReset", err)
	}
	if got := vc.Stats(); got.Reset != before.Reset+1 || got.Passed != before.Passed {
		t.Fatalf("refusal counted as %+v (was %+v), want one more Reset", got, before)
	}
}

// TestVirtualClusterTransientFaults forwards non-replica faults to the
// serving member like the single-target model.
func TestVirtualClusterTransientFaults(t *testing.T) {
	vc := NewVirtualCluster(2, 1, "model")
	vc.SetFault(&Fault{Kind: FaultErrorBurst, Rate: 1})
	if _, err := vc.Sample(10); err == nil {
		t.Fatal("error burst did not fail the request")
	}
	vc.SetFault(nil) // transient faults clear at phase end
	if _, err := vc.Sample(10); err != nil {
		t.Fatalf("sample after clearing transient fault: %v", err)
	}
}

// TestClusterFaultValidation rejects replica faults without a cluster
// spec and a cluster too small to fail over.
func TestClusterFaultValidation(t *testing.T) {
	base := Scenario{
		Name: "v", Seed: 1, Workload: WorkloadSynthetic,
		SLO: SLO{LatencyP95: 100 * time.Millisecond},
		Phases: []Phase{{
			Name: "p", Duration: time.Second,
			Shape: Shape{Kind: ShapeSteady, BaseRPS: 10},
			Fault: &Fault{Kind: FaultReplicaKill},
		}},
	}
	if err := base.Validate(); err == nil {
		t.Fatal("replica fault without cluster spec validated")
	}
	base.Cluster = &ClusterSpec{Replicas: 3}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid cluster scenario rejected: %v", err)
	}
	base.Cluster.Replicas = 1
	if err := base.Validate(); err == nil {
		t.Fatal("single-replica cluster validated")
	}
}

// TestClusterFailoverCampaignDeterministic runs the builtin end to end
// twice: the scorecards must be byte-identical, count real reroutes, and
// record a recovery after the restart phase.
func TestClusterFailoverCampaignDeterministic(t *testing.T) {
	sc := builtin(t, "cluster-failover")
	run := func() ([]byte, Scorecard) {
		rec, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		card := Score(rec)
		raw, err := card.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return raw, card
	}
	raw1, card := run()
	raw2, _ := run()
	if string(raw1) != string(raw2) {
		t.Fatalf("cluster-failover scorecards differ across seeded runs:\n%s\n%s", raw1, raw2)
	}
	if card.Faults.Rerouted == 0 {
		t.Fatal("campaign killed the shard owner but counted zero reroutes")
	}
	if card.RecoveryNs < 0 {
		t.Fatalf("no recovery recorded after the restart phase (verdict %s: %v)", card.Verdict, card.Reasons)
	}
	if card.Verdict == "fail" {
		t.Fatalf("cluster-failover verdict %q: %v", card.Verdict, card.Reasons)
	}
}
