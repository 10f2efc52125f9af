package cluster

import (
	"context"
	"time"

	"repro/internal/serving"
	"repro/internal/wire"
)

// ErrReplicaDown is returned by backends whose replica is unreachable
// (killed process, refused connection, transport failure). The router
// treats it as a failover signal: the member is marked down immediately
// and the request reroutes to the next ring candidate, without waiting
// for the heartbeat sweep to notice. The sentinel itself lives in the
// wire package, beside the status table that maps it to 503.
var ErrReplicaDown = wire.ErrReplicaDown

// ErrNoReplicas is returned when no up replica can take a request.
// Servers surface it as 503.
var ErrNoReplicas = wire.ErrNoReplicas

// HeartbeatInfo is one replica's self-report, polled by the cluster on
// the heartbeat interval and folded into membership state.
type HeartbeatInfo struct {
	ID string `json:"id"`
	// InFlight is the serving runtime's in-flight instance count — the
	// queue-depth signal the least-loaded spillover reads.
	InFlight int `json:"inFlight"`
	// Models and WarmBytes describe the replica's registry (capacity
	// planning and the dashboard's cluster panel).
	Models    int   `json:"models"`
	WarmBytes int64 `json:"warmBytes"`
}

// Backend is the coordinator's and router's view of one replica,
// implemented in-process by *Replica itself and over the wire by
// HTTPBackend. Every method takes a context the caller bounds with the
// cluster's RPC timeout.
type Backend interface {
	// ID returns the replica's stable identifier.
	ID() string
	// Predict scores instances on the replica's serving runtime.
	Predict(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error)
	// Heartbeat reports liveness and load.
	Heartbeat(ctx context.Context) (HeartbeatInfo, error)
	// Push replicates one serialized model envelope as the next version
	// of name. Content addressing makes re-pushing idempotent: a blob the
	// replica already holds dedupes to the existing entry.
	Push(ctx context.Context, name, algo string, blob []byte) (serving.Ref, error)
	// Aliases lists the replica's registry alias state (anti-entropy
	// reconciliation reads it to find divergence).
	Aliases(ctx context.Context) ([]serving.AliasInfo, error)
	// Prepare stages the alias flip name -> version (whose content id
	// must equal id) under txn, valid for ttl on the replica's clock.
	// After a successful prepare the replica guarantees Commit(txn) will
	// succeed until the ttl expires.
	Prepare(ctx context.Context, txn, name string, version int, id string, ttl time.Duration) error
	// Commit applies a staged flip.
	Commit(ctx context.Context, txn string) error
	// Abort discards a staged flip. Aborting an unknown txn is a no-op.
	Abort(ctx context.Context, txn string) error
}
