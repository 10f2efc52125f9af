package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/serving"
)

// fixedBackend answers every predict with the same preallocated rows, so
// whatever a Cluster.Predict call allocates is the router's own.
type fixedBackend struct {
	id      string
	probs   [][]float64
	classes []int
}

func (b *fixedBackend) ID() string { return b.id }

func (b *fixedBackend) Predict(context.Context, string, [][]float64) ([][]float64, []int, error) {
	return b.probs, b.classes, nil
}

func (b *fixedBackend) Heartbeat(context.Context) (HeartbeatInfo, error) {
	return HeartbeatInfo{ID: b.id}, nil
}

func (b *fixedBackend) Push(context.Context, string, string, []byte) (serving.Ref, error) {
	return serving.Ref{}, nil
}

func (b *fixedBackend) Aliases(context.Context) ([]serving.AliasInfo, error) { return nil, nil }

func (b *fixedBackend) Prepare(context.Context, string, string, int, string, time.Duration) error {
	return nil
}

func (b *fixedBackend) Commit(context.Context, string) error { return nil }

func (b *fixedBackend) Abort(context.Context, string) error { return nil }

// TestRoutingAllocatesNothing: the router's per-request work — shard key,
// ring walk, bounded-load pick, load accounting — allocates nothing, so
// a cluster predict costs only what its replica allocates. Three members
// answer a 64×21 predict (the cluster_mixed body) from fixed slices.
func TestRoutingAllocatesNothing(t *testing.T) {
	const rows, dim = 64, 21
	instances := make([][]float64, rows)
	probs := make([][]float64, rows)
	for i := range instances {
		instances[i] = make([]float64, dim)
		probs[i] = []float64{0.25, 0.75}
	}
	classes := make([]int, rows)
	c := New(Config{})
	for _, id := range []string{"replica-a", "replica-b", "replica-c"} {
		if err := c.Join(&fixedBackend{id: id, probs: probs, classes: classes}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, _, err := c.Predict(ctx, "lgbm@2", instances); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(){
		"Cluster.Predict": func() { c.Predict(ctx, "lgbm@2", instances) },
		"Cluster.Owner":   func() { c.Owner("lgbm@2") },
	} {
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
}
