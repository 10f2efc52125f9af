package scenario

import (
	"context"
	"testing"
	"time"
)

// TestVirtualClusterFailover drives the tier directly: killing the shard
// owner reroutes every subsequent request, the kill sticks across phase
// boundaries (SetFault(nil)), and only a restart revives the member.
func TestVirtualClusterFailover(t *testing.T) {
	vc := NewVirtualCluster(3, 1, "model")
	owner := vc.Owner()
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
	next := vc.Owner()
	if next == owner || next == "" {
		t.Fatalf("owner after kill: %q (was %q)", next, owner)
	}
	if _, err := vc.Sample(10); err != nil {
		t.Fatalf("sample after kill: %v", err)
	}
	vc.SetFault(nil) // phase boundary: the kill must persist
	if got := vc.Owner(); got != next {
		t.Fatalf("kill did not survive SetFault(nil): owner %q, want %q", got, next)
	}
	if _, err := vc.Sample(10); err != nil {
		t.Fatal(err)
	}
	if got := vc.Stats().Rerouted; got != 2 {
		t.Fatalf("rerouted = %d after two off-owner samples, want 2", got)
	}

	vc.SetFault(&Fault{Kind: FaultReplicaRestart})
	if got := vc.Owner(); got != owner {
		t.Fatalf("restart did not restore the owner: %q, want %q", got, owner)
	}

	// Killing everything refuses requests with a reset.
	vc.SetFault(&Fault{Kind: FaultReplicaKill, Replica: "replica-0"})
	vc.SetFault(&Fault{Kind: FaultReplicaKill, Replica: "replica-1"})
	vc.SetFault(&Fault{Kind: FaultReplicaKill, Replica: "replica-2"})
	if _, err := vc.Sample(10); err == nil {
		t.Fatal("sample on a fully dead tier succeeded")
	}
	if got := vc.Owner(); got != "" {
		t.Fatalf("dead tier still names owner %q", got)
	}
}

// TestVirtualClusterTransientFaults forwards non-replica faults to the
// serving member like the single-target model.
func TestVirtualClusterTransientFaults(t *testing.T) {
	vc := NewVirtualCluster(2, 1, "model")
	vc.SetFault(&Fault{Kind: FaultDown})
	if _, err := vc.Sample(10); err == nil {
		t.Fatal("down fault did not refuse the request")
	}
	vc.SetFault(nil) // transient faults clear at phase end
	if _, err := vc.Sample(10); err != nil {
		t.Fatalf("sample after clearing transient fault: %v", err)
	}
}

// TestClusterFaultValidation rejects replica faults without a cluster
// spec and misuse of the replica target.
func TestClusterFaultValidation(t *testing.T) {
	base := Scenario{
		Name: "v", Seed: 1,
		SLO: SLO{LatencyP95: dur(100 * time.Millisecond)},
		Phases: []Phase{{
			Name: "p", Duration: dur(time.Second),
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
	base.Cluster.Replicas = 3
	base.Phases[0].Fault = &Fault{Kind: FaultLatency, Latency: dur(time.Millisecond), Replica: "replica-0"}
	if err := base.Validate(); err == nil {
		t.Fatal("replica target on a non-replica fault validated")
	}
}

// TestClusterFailoverCampaignDeterministic runs the builtin end to end
// twice: the scorecards must be byte-identical, count real reroutes, and
// record a recovery after the restart phase.
func TestClusterFailoverCampaignDeterministic(t *testing.T) {
	sc, ok := Default().Get("cluster-failover")
	if !ok {
		t.Fatal("cluster-failover not in the builtin library")
	}
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
