package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/serving"
)

// instrumented wraps a replica to count predicts and optionally gate
// them (a saturated owner for the spillover test).
type instrumented struct {
	*Replica
	calls atomic.Int64
	gate  chan struct{} // non-nil: Predict waits for a receive
}

func (b *instrumented) Predict(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error) {
	b.calls.Add(1)
	if b.gate != nil {
		<-b.gate
	}
	return b.Replica.Predict(ctx, ref, instances)
}

// newInstrumentedTier joins n instrumented replicas on one fake clock.
func newInstrumentedTier(t *testing.T, n int, cfg Config) (*Cluster, []*instrumented) {
	t.Helper()
	fake := clock.NewFake(testEpoch)
	cfg.Clock = fake
	c := New(cfg)
	backs := make([]*instrumented, n)
	for i := 0; i < n; i++ {
		backs[i] = &instrumented{
			Replica: NewReplica("replica-"+string(rune('a'+i)), serving.Config{MaxBatch: 1, Clock: fake}),
		}
		if err := c.Join(backs[i]); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, b := range backs {
			b.Replica.Close()
		}
	})
	return c, backs
}

// TestShardStickiness: every reference form of one model — bare alias,
// pinned version, latest — routes to the same shard owner, so its warm
// cache survives promotes.
func TestShardStickiness(t *testing.T) {
	c, backs := newInstrumentedTier(t, 3, Config{RPCTimeout: 10 * time.Second})
	if _, err := c.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("demo", trainedModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	owner := c.Owner("demo")
	if got := c.Owner("demo@2"); got != owner {
		t.Fatalf("demo@2 shards to %s, demo to %s", got, owner)
	}
	if got := c.Owner("demo@latest"); got != owner {
		t.Fatalf("demo@latest shards to %s, demo to %s", got, owner)
	}
	for _, b := range backs {
		b.calls.Store(0)
	}
	ctx := context.Background()
	for _, ref := range []string{"demo", "demo@1", "demo@latest", "demo", "demo@2"} {
		if _, _, err := c.Predict(ctx, ref, testInstances); err != nil {
			t.Fatalf("predict %s: %v", ref, err)
		}
	}
	for _, b := range backs {
		got := b.calls.Load()
		if b.ID() == owner && got != 5 {
			t.Fatalf("owner %s served %d/5 predicts", b.ID(), got)
		}
		if b.ID() != owner && got != 0 {
			t.Fatalf("non-owner %s served %d predicts; shard routing leaked", b.ID(), got)
		}
	}
}

// TestShardKey pins the routing-key derivation.
func TestShardKey(t *testing.T) {
	cases := map[string]string{
		"demo":         "demo",
		"demo@2":       "demo",
		"demo@latest":  "demo",
		"sha256:ab@cd": "sha256:ab@cd", // content ids shard verbatim
		"sha256:ab":    "sha256:ab",
	}
	for ref, want := range cases {
		if got := ShardKey(ref); got != want {
			t.Fatalf("ShardKey(%q) = %q, want %q", ref, got, want)
		}
	}
}

// TestBoundedLoadSpillover: with the shard owner saturated past the
// bounded-load ceiling, the next request walks to a ring successor
// instead of queueing behind the hot shard.
func TestBoundedLoadSpillover(t *testing.T) {
	c, backs := newInstrumentedTier(t, 3, Config{RPCTimeout: 10 * time.Second})
	if _, err := c.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	owner := c.Owner("demo")
	var ownerBack *instrumented
	for _, b := range backs {
		if b.ID() == owner {
			ownerBack = b
		}
		b.calls.Store(0)
	}
	gate := make(chan struct{})
	ownerBack.gate = gate

	// Park one request on the owner: its tracked load reaches 1, which
	// meets the bound ceil(1.25 * 2 / 3) = 1.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := c.Predict(context.Background(), "demo", testInstances[:1]); err != nil {
			t.Errorf("parked predict: %v", err)
		}
	}()
	waitForLoad(t, c, owner, 1)

	// Saturated owner: this request must land elsewhere.
	before := ownerBack.calls.Load()
	if _, _, err := c.Predict(context.Background(), "demo", testInstances[:1]); err != nil {
		t.Fatalf("spillover predict: %v", err)
	}
	if got := ownerBack.calls.Load(); got != before {
		t.Fatalf("saturated owner served the spillover request (calls %d -> %d)", before, got)
	}
	spilled := int64(0)
	for _, b := range backs {
		if b.ID() != owner {
			spilled += b.calls.Load()
		}
	}
	if spilled != 1 {
		t.Fatalf("spillover served by %d non-owners, want exactly 1", spilled)
	}

	// Release the parked request; the owner takes traffic again (a
	// closed gate never blocks, so it can stay in place).
	close(gate)
	wg.Wait()
	waitForLoad(t, c, owner, 0)
	before = ownerBack.calls.Load()
	if _, _, err := c.Predict(context.Background(), "demo", testInstances[:1]); err != nil {
		t.Fatal(err)
	}
	if got := ownerBack.calls.Load(); got != before+1 {
		t.Fatalf("drained owner did not regain its shard (calls %d -> %d)", before, got)
	}
}

// waitForLoad polls the status until the member's tracked load reaches
// want (predict goroutines are real concurrency even on a fake clock).
func waitForLoad(t *testing.T, c *Cluster, id string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, r := range c.Status().Replicas {
			if r.ID == id && r.Load == want {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("member %s never reached load %d: %+v", id, want, c.Status().Replicas)
}
