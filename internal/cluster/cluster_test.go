package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/serving"
	"repro/internal/telemetry"
)

// TestFailoverReroutesNextRequest is the acceptance check: with 3
// replicas on the fake clock, killing the shard owner reroutes the very
// next request — error-driven demotion, no heartbeat wait.
func TestFailoverReroutesNextRequest(t *testing.T) {
	tier := newTestTier(t, 3, Config{
		HeartbeatInterval: time.Second,
		RPCTimeout:        10 * time.Second,
	})
	c := tier.cluster
	if _, err := c.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}

	probs, classes, err := c.Predict(context.Background(), "demo", testInstances)
	if err != nil {
		t.Fatalf("warm predict: %v", err)
	}
	if len(probs) != 2 || len(classes) != 2 {
		t.Fatalf("got %d probs / %d classes, want 2/2", len(probs), len(classes))
	}

	owner := c.Owner("demo")
	if owner == "" {
		t.Fatal("no shard owner")
	}
	tier.replica(t, owner).Kill()

	// Next request, same virtual instant: must reroute, not error.
	probs2, _, err := c.Predict(context.Background(), "demo", testInstances)
	if err != nil {
		t.Fatalf("predict after killing owner %s: %v", owner, err)
	}
	for i := range probs {
		for j := range probs[i] {
			if probs[i][j] != probs2[i][j] {
				t.Fatalf("rerouted replica disagrees: %v vs %v (replicated registries diverged)", probs[i], probs2[i])
			}
		}
	}
	if newOwner := c.Owner("demo"); newOwner == owner || newOwner == "" {
		t.Fatalf("ring still names %q after demotion (new owner %q)", owner, newOwner)
	}

	st := c.Status()
	upCount := 0
	for _, r := range st.Replicas {
		if r.Up {
			upCount++
		}
	}
	if upCount != 2 || len(st.RingMembers) != 2 {
		t.Fatalf("after kill: %d up, ring %v", upCount, st.RingMembers)
	}
}

// TestHeartbeatExpiryAndRestartRecovery drives the sweep path: a killed
// replica expires after three heartbeat intervals of silence, and a
// restarted one (empty registry) is re-synced by anti-entropy before
// rejoining the ring.
func TestHeartbeatExpiryAndRestartRecovery(t *testing.T) {
	tier := newTestTier(t, 3, Config{
		HeartbeatInterval: time.Second,
		RPCTimeout:        30 * time.Second,
	})
	c := tier.cluster
	if _, err := c.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("demo", trainedModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.PromoteAll("demo", 2); err != nil {
		t.Fatal(err)
	}

	victim := tier.replica(t, c.Owner("demo"))
	victim.Kill()

	// Two sweeps inside the expiry window: the member is silent but not
	// yet expired (no flapping on one missed beat).
	for i := 0; i < 2; i++ {
		tier.clk.Advance(time.Second)
		c.TickHeartbeat()
	}
	if got := len(c.Status().RingMembers); got != 3 {
		t.Fatalf("ring shrank to %d members before expiry", got)
	}
	// Third silent second reaches the expiry, three intervals.
	tier.clk.Advance(time.Second)
	c.TickHeartbeat()
	st := c.Status()
	if len(st.RingMembers) != 2 {
		t.Fatalf("ring %v after expiry, want 2 members", st.RingMembers)
	}
	for _, r := range st.Replicas {
		if r.ID == victim.ID() && r.Up {
			t.Fatalf("expired member still up: %+v", r)
		}
	}

	// Restart: empty registry. The next sweep must re-probe, replay both
	// versions in canonical order, realign the promoted pointer, and
	// readmit it to the ring.
	victim.Restart()
	if got, _ := victim.Aliases(context.Background()); len(got) != 0 {
		t.Fatalf("restarted replica kept %d aliases, want empty", len(got))
	}
	tier.clk.Advance(time.Second)
	c.TickHeartbeat()
	if got := len(c.Status().RingMembers); got != 3 {
		t.Fatalf("ring has %d members after restart recovery, want 3", got)
	}
	aliases, err := victim.Aliases(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(aliases) != 1 || aliases[0].Name != "demo" {
		t.Fatalf("anti-entropy left aliases %+v", aliases)
	}
	want := c.Canonical().Aliases()[0]
	got := aliases[0]
	if got.Current != want.Current || len(got.Versions) != len(want.Versions) {
		t.Fatalf("replica alias %+v, canonical %+v", got, want)
	}
	for i := range want.Versions {
		if got.Versions[i] != want.Versions[i] {
			t.Fatalf("version %d: replica %s, canonical %s", i+1, got.Versions[i], want.Versions[i])
		}
	}
}

// corruptingBackend flips one byte of every blob pushed through it, as a
// faulty link or disk on the replica's side would.
type corruptingBackend struct{ Backend }

func (b corruptingBackend) Push(ctx context.Context, name, algo string, blob []byte) (serving.Ref, error) {
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xff
	return b.Backend.Push(ctx, name, algo, bad)
}

// TestCorruptPushFailsSync: the coordinator checks every replica copy
// against its content id on push. A replica that stores different bytes
// fails its join, and one that was already up is demoted on the next
// replication; either way it stays out of the ring.
func TestCorruptPushFailsSync(t *testing.T) {
	tier := newTestTier(t, 1, Config{RPCTimeout: 10 * time.Second})
	c := tier.cluster
	if _, err := c.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	joiner := NewReplica("replica-joiner", serving.Config{MaxBatch: 1, Clock: tier.clk})
	defer joiner.Close()
	err := c.Join(corruptingBackend{joiner})
	if err == nil || !strings.Contains(err.Error(), "canonical expects") {
		t.Fatalf("join with corrupt pushes: %v, want the coordinator's canonical-expects error", err)
	}
	for _, when := range []string{"after the join", "after a re-probe"} {
		if got := fmt.Sprint(c.Status().RingMembers); got != "[replica-0]" {
			t.Fatalf("ring %s %s, want only the honest replica-0", got, when)
		}
		c.TickHeartbeat() // the re-probe resyncs and fails the same way
	}

	// A member that joins while the registry is empty has nothing to push;
	// the first replication finds the corruption and demotes it.
	fresh := New(Config{RPCTimeout: 10 * time.Second, Clock: tier.clk})
	late := NewReplica("replica-late", serving.Config{MaxBatch: 1, Clock: tier.clk})
	defer late.Close()
	if err := fresh.Join(corruptingBackend{late}); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Status().RingMembers; len(got) != 0 {
		t.Fatalf("ring %v after a corrupt replication, want empty", got)
	}
}

// TestAllReplicasDown exhausts the tier.
func TestAllReplicasDown(t *testing.T) {
	tier := newTestTier(t, 2, Config{RPCTimeout: 10 * time.Second})
	c := tier.cluster
	if _, err := c.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	for _, rp := range tier.replicas {
		rp.Kill()
	}
	_, _, err := c.Predict(context.Background(), "demo", testInstances)
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("predict on dead tier: %v, want ErrNoReplicas", err)
	}
}

// TestClusterMetricsFamilies asserts the satellite metric families exist
// with replica-bounded labels and sane values.
func TestClusterMetricsFamilies(t *testing.T) {
	tel := telemetry.NewRegistry()
	tier := newTestTier(t, 3, Config{Telemetry: tel, RPCTimeout: 10 * time.Second})
	c := tier.cluster
	if _, err := c.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	tier.replica(t, c.Owner("demo")).Kill()
	if _, _, err := c.Predict(context.Background(), "demo", testInstances); err != nil {
		t.Fatal(err)
	}

	found := make(map[string]int)
	upByReplica := make(map[string]float64)
	var replBytes, ringMoves float64
	for _, fam := range tel.Gather() {
		found[fam.Name] = len(fam.Series)
		switch fam.Name {
		case telemetry.FamClusterReplicaUp:
			for _, s := range fam.Series {
				upByReplica[s.Labels[0].Value] = s.Value
			}
		case telemetry.FamClusterReplicationBytes:
			for _, s := range fam.Series {
				replBytes += s.Value
			}
		case telemetry.FamClusterRingMoves:
			ringMoves = fam.Series[0].Value
		}
	}
	for _, name := range []string{
		telemetry.FamClusterReplicaUp,
		telemetry.FamClusterRingMoves,
		telemetry.FamClusterReplicationBytes,
		telemetry.FamClusterHeartbeatAge,
	} {
		if found[name] == 0 {
			t.Fatalf("family %s missing from Gather (have %v)", name, found)
		}
	}
	if got := found[telemetry.FamClusterReplicaUp]; got != 3 {
		t.Fatalf("replica_up has %d series, want 3 (bounded by replica set)", got)
	}
	var ups float64
	for _, v := range upByReplica {
		ups += v
	}
	if ups != 2 {
		t.Fatalf("replica_up sums to %v after one kill, want 2 (%v)", ups, upByReplica)
	}
	if replBytes <= 0 {
		t.Fatalf("replication bytes %v, want > 0 after register fan-out", replBytes)
	}
	if ringMoves <= 0 {
		t.Fatalf("ring moves %v, want > 0 after demotion rebuild", ringMoves)
	}
}

// TestStatusJSONDeterministic guards the dashboard/CI artifact shape:
// same seed, same virtual timeline, byte-identical status JSON.
func TestStatusJSONDeterministic(t *testing.T) {
	build := func() []byte {
		tier := newTestTier(t, 3, Config{
			HeartbeatInterval: time.Second,
			RPCTimeout:        10 * time.Second,
		})
		c := tier.cluster
		if _, err := c.Register("demo", trainedModel(t, 1)); err != nil {
			t.Fatal(err)
		}
		tier.clk.Advance(time.Second)
		c.TickHeartbeat()
		tier.replica(t, c.Owner("demo")).Kill()
		if _, _, err := c.Predict(context.Background(), "demo", testInstances); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(c.Status())
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Fatalf("status JSON differs across identical seeded runs:\n%s\n%s", a, b)
	}
}
