package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/serving"
)

// Replica hosts one serving runtime (registry, batching worker
// pools, admission control) as a cluster member. It implements Backend
// directly for in-process topologies; Handler (replica_http.go) exposes
// the same surface over HTTP for multi-process ones.
//
// Kill and Restart model a process crash for fault injection and the
// scenario engine's replica-kill action: a killed replica fails every
// backend call with ErrReplicaDown and drops its in-memory registry, so
// a restart comes back empty and exercises the coordinator's
// anti-entropy resync for real.
type Replica struct {
	id  string
	clk clock.Clock
	cfg serving.Config

	mu     sync.Mutex
	rt     *serving.Runtime
	down   bool
	staged map[string]stagedFlip
}

// stagedFlip is one prepared-but-uncommitted alias flip.
type stagedFlip struct {
	name     string
	version  int
	id       string
	deadline time.Time
}

// NewReplica builds a replica with the given stable ID over a fresh
// serving runtime. cfg.Clock doubles as the replica's clock (prepare
// TTLs, heartbeat self-reports); clock.Real() when nil.
func NewReplica(id string, cfg serving.Config) *Replica {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real()
		cfg.Clock = clk
	}
	return &Replica{
		id:     id,
		clk:    clk,
		cfg:    cfg,
		rt:     serving.New(cfg),
		staged: make(map[string]stagedFlip),
	}
}

// ID returns the replica's stable identifier.
func (rp *Replica) ID() string { return rp.id }

// runtime returns the live runtime, or ErrReplicaDown when killed.
func (rp *Replica) runtime() (*serving.Runtime, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.down {
		return nil, fmt.Errorf("replica %s: %w", rp.id, ErrReplicaDown)
	}
	return rp.rt, nil
}

// Kill simulates a process crash: every subsequent backend call fails
// with ErrReplicaDown, in-flight predictions fail with the runtime's
// closed error, and the in-memory registry (with any staged flips) is
// gone. Idempotent.
func (rp *Replica) Kill() {
	rp.mu.Lock()
	if rp.down {
		rp.mu.Unlock()
		return
	}
	rp.down = true
	rt := rp.rt
	rp.rt = nil
	rp.staged = make(map[string]stagedFlip)
	rp.mu.Unlock()
	rt.Close()
}

// Restart brings a killed replica back with a fresh, empty runtime — the
// crash-recovery shape anti-entropy reconciliation is built for. A no-op
// on a live replica.
func (rp *Replica) Restart() {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if !rp.down {
		return
	}
	rp.down = false
	rp.rt = serving.New(rp.cfg)
}

// Runtime exposes the live serving runtime (nil when killed) so launch
// code can register models or read metrics directly.
func (rp *Replica) Runtime() *serving.Runtime {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.rt
}

// Close shuts the underlying runtime down. Unlike Kill it leaves the
// replica marked up; use it only at teardown.
func (rp *Replica) Close() {
	rp.mu.Lock()
	rt := rp.rt
	rp.mu.Unlock()
	if rt != nil {
		rt.Close()
	}
}

// Predict implements Backend over the local runtime.
func (rp *Replica) Predict(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error) {
	rt, err := rp.runtime()
	if err != nil {
		return nil, nil, err
	}
	return rt.Predict(ctx, ref, instances)
}

// Heartbeat implements Backend: the replica's liveness and load
// self-report.
func (rp *Replica) Heartbeat(ctx context.Context) (HeartbeatInfo, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.down {
		return HeartbeatInfo{}, fmt.Errorf("replica %s: %w", rp.id, ErrReplicaDown)
	}
	reg := rp.rt.Registry()
	return HeartbeatInfo{
		ID:        rp.id,
		InFlight:  rp.rt.InFlight(),
		Models:    reg.Len(),
		WarmBytes: reg.WarmBytes(),
	}, nil
}

// Push implements Backend: store a replicated envelope as the next
// version of name. Content addressing dedupes re-pushes, so replaying a
// replication stream is idempotent.
func (rp *Replica) Push(ctx context.Context, name, algo string, blob []byte) (serving.Ref, error) {
	rt, err := rp.runtime()
	if err != nil {
		return serving.Ref{}, err
	}
	return rt.Registry().RegisterBytes(name, algo, blob)
}

// Aliases implements Backend.
func (rp *Replica) Aliases(ctx context.Context) ([]serving.AliasInfo, error) {
	rt, err := rp.runtime()
	if err != nil {
		return nil, err
	}
	return rt.Registry().Aliases(), nil
}

// Prepare implements Backend: validate and stage the alias flip
// name -> version under txn. After success, Commit(txn) is guaranteed to
// apply until ttl expires on the replica's clock; the content-id check
// guards against a replica whose version numbering diverged from the
// coordinator's canonical registry.
func (rp *Replica) Prepare(ctx context.Context, txn, name string, version int, id string, ttl time.Duration) error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.down {
		return fmt.Errorf("replica %s: %w", rp.id, ErrReplicaDown)
	}
	if txn == "" {
		return fmt.Errorf("replica %s: empty txn", rp.id)
	}
	got, err := rp.rt.Registry().Resolve(fmt.Sprintf("%s@%d", name, version))
	if err != nil {
		return fmt.Errorf("replica %s: prepare %s@%d: %w", rp.id, name, version, err)
	}
	if got != id {
		return fmt.Errorf("replica %s: prepare %s@%d: content id %s, coordinator expects %s",
			rp.id, name, version, got, id)
	}
	rp.staged[txn] = stagedFlip{name: name, version: version, id: id, deadline: rp.clk.Now().Add(ttl)}
	return nil
}

// Commit implements Backend: apply a staged flip. Committing an unknown
// or expired txn fails — the coordinator treats that as divergence and
// heals it via anti-entropy.
func (rp *Replica) Commit(ctx context.Context, txn string) error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.down {
		return fmt.Errorf("replica %s: %w", rp.id, ErrReplicaDown)
	}
	st, ok := rp.staged[txn]
	if !ok {
		return fmt.Errorf("replica %s: commit unknown txn %s", rp.id, txn)
	}
	delete(rp.staged, txn)
	if rp.clk.Now().After(st.deadline) {
		return fmt.Errorf("replica %s: txn %s expired before commit", rp.id, txn)
	}
	return rp.rt.Registry().Promote(st.name, st.version)
}

// Abort implements Backend: discard a staged flip. Unknown txns are a
// no-op so aborts are safe to broadcast.
func (rp *Replica) Abort(ctx context.Context, txn string) error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.down {
		return fmt.Errorf("replica %s: %w", rp.id, ErrReplicaDown)
	}
	delete(rp.staged, txn)
	return nil
}
