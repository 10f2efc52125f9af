package scenario

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/ml"
)

// newTestCluster builds an n-replica virtual cluster on a fake clock
// with a small model registered under "model".
func newTestCluster(t *testing.T, n int) (*virtualCluster, *clock.Fake) {
	t.Helper()
	model := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := model.Fit(syntheticTable(1)); err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(Epoch)
	vc, err := newVirtualCluster(clk, n, 1, "model", model)
	if err != nil {
		t.Fatal(err)
	}
	return vc, clk
}

// replicaUp reports the tier's view of one replica.
func replicaUp(t *testing.T, vc *virtualCluster, id string) bool {
	t.Helper()
	for _, r := range vc.Status().Replicas {
		if r.ID == id {
			return r.Up
		}
	}
	t.Fatalf("replica %q not in status", id)
	return false
}

// TestVirtualClusterFailover drives the real tier directly: the first
// request after the shard owner is killed fails over and is served, the
// kill sticks across phase boundaries (SetFault(nil)), a restarted
// owner rejoins the ring only at the next heartbeat sweep, and with
// every replica killed the tier refuses with cluster.ErrNoReplicas.
func TestVirtualClusterFailover(t *testing.T) {
	vc, clk := newTestCluster(t, 3)
	owner := vc.Owner("model")
	if owner == "" {
		t.Fatal("fresh cluster has no owner")
	}
	if _, err := vc.Sample(10); err != nil {
		t.Fatalf("warm sample: %v", err)
	}

	vc.SetFault(&Fault{Kind: FaultReplicaKill})
	if _, err := vc.Sample(10); err != nil {
		t.Fatalf("sample after kill: %v", err)
	}
	if replicaUp(t, vc, owner) {
		t.Fatalf("killed owner %s still up after a request failed over", owner)
	}
	if got := vc.Stats().Rerouted; got == 0 {
		t.Fatal("failover counted no reroute")
	}

	vc.SetFault(nil) // phase boundary: the kill must persist
	clk.Advance(heartbeatEvery)
	vc.TickHeartbeat()
	if _, err := vc.Sample(10); err != nil {
		t.Fatal(err)
	}
	if replicaUp(t, vc, owner) || vc.Owner("model") == owner {
		t.Fatalf("kill of %s did not survive SetFault(nil) and a sweep", owner)
	}

	vc.SetFault(&Fault{Kind: FaultReplicaRestart})
	if slices.Contains(vc.Status().RingMembers, owner) {
		t.Fatalf("restarted %s rejoined the ring before any heartbeat sweep", owner)
	}
	clk.Advance(heartbeatEvery)
	vc.TickHeartbeat()
	if !slices.Contains(vc.Status().RingMembers, owner) {
		t.Fatalf("restarted %s not back in the ring after a sweep: %v", owner, vc.Status().RingMembers)
	}
	if got := vc.Owner("model"); got != owner {
		t.Fatalf("owner after rejoin %q, want %q", got, owner)
	}

	// Three kills, each followed by the request that finds it, take the
	// whole tier down: the last request is refused, counted in Reset.
	var err error
	var before ChaosStats
	for i := 0; i < 3; i++ {
		vc.SetFault(&Fault{Kind: FaultReplicaKill})
		before = vc.Stats()
		_, err = vc.Sample(10)
	}
	if !errors.Is(err, cluster.ErrNoReplicas) {
		t.Fatalf("sample on a fully dead tier: %v, want cluster.ErrNoReplicas", err)
	}
	if got := vc.Stats(); got.Reset != before.Reset+1 || got.Passed != before.Passed {
		t.Fatalf("refusal counted as %+v (was %+v), want one more Reset", got, before)
	}
}

// TestVirtualClusterTransientFaults forwards non-replica faults to the
// serving member like the single-target model.
func TestVirtualClusterTransientFaults(t *testing.T) {
	vc, _ := newTestCluster(t, 2)
	vc.SetFault(&Fault{Kind: FaultErrorBurst, Rate: 1})
	if _, err := vc.Sample(10); err == nil {
		t.Fatal("error burst did not fail the request")
	}
	vc.SetFault(nil) // transient faults clear at phase end
	if _, err := vc.Sample(10); err != nil {
		t.Fatalf("sample after clearing transient fault: %v", err)
	}
}

// TestOneReplicaOutageCampaign runs a replica kill and restart on the
// one-replica tier every scenario gets by default: with nothing to fail
// over to, the kill phase is a whole-tier outage booked as Reset, the
// restarted replica rejoins at the next heartbeat sweep (half a second
// into the restart phase here), the run records a recovery, and two
// runs give byte-identical scorecards.
func TestOneReplicaOutageCampaign(t *testing.T) {
	steady := Shape{Kind: ShapeSteady, BaseRPS: 20}
	sc := Scenario{
		Name: "one-replica-outage", Seed: 11, Workload: WorkloadSynthetic,
		SLO: SLO{LatencyP95: 150 * time.Millisecond, MaxErrorRate: 0.05},
		Phases: []Phase{
			{Name: "baseline", Duration: 3 * time.Second, Shape: steady},
			{Name: "outage", Duration: 2500 * time.Millisecond, Shape: steady,
				Fault: &Fault{Kind: FaultReplicaKill}},
			{Name: "restart", Duration: 1500 * time.Millisecond, Shape: steady,
				Fault: &Fault{Kind: FaultReplicaRestart}},
			{Name: "cooldown", Duration: 3 * time.Second, Shape: steady},
		},
	}
	run := func() (*Record, []byte, Scorecard) {
		rec, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		card := Score(rec)
		raw, err := card.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rec, raw, card
	}
	rec, raw1, card := run()
	_, raw2, _ := run()
	if string(raw1) != string(raw2) {
		t.Fatalf("one-replica outage scorecards differ across seeded runs:\n%s\n%s", raw1, raw2)
	}

	kill, restart := rec.Marks[1], rec.Marks[2]
	rejoin := rec.Start // the first heartbeat sweep at or after the restart
	for rejoin.Before(restart.Start) {
		rejoin = rejoin.Add(heartbeatEvery)
	}
	var refused, killed int64
	for _, s := range rec.Results.Samples {
		down := !s.Start.Before(kill.Start) && s.Start.Before(rejoin)
		if down != errors.Is(s.Err, cluster.ErrNoReplicas) {
			t.Fatalf("request at %v: err %v, want refused=%v (rejoin at %v)",
				s.Start.Sub(rec.Start), s.Err, down, rejoin.Sub(rec.Start))
		}
		if down {
			refused++
		}
		if down && s.Start.Before(kill.End) {
			killed++
		}
	}
	if killed == 0 || refused == killed {
		t.Fatalf("refused %d requests, %d in the kill phase: want some in each of the kill phase and the restart before the sweep", refused, killed)
	}
	if got := rec.Chaos; got.Reset != refused || got.Passed != int64(len(rec.Results.Samples))-refused {
		t.Fatalf("chaos %+v: want Reset %d of %d requests", got, refused, len(rec.Results.Samples))
	}
	if card.RecoveryNs < 0 {
		t.Fatalf("no recovery recorded after the restart phase (verdict %s: %v)", card.Verdict, card.Reasons)
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
