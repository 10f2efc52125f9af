package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/ml"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// virtualCluster is the world every scenario runs in: the real
// internal/cluster tier on the run's fake clock, over N real replicas
// whose predictions a per-replica virtualTarget answers. Routing,
// failover and rejoin are the tier's own: a replica-kill fault kills the
// shard owner, the next request fails over through Cluster.Predict's
// markDown-and-retry, and a restarted replica comes back only when a
// heartbeat sweep (TickHeartbeat, which the executor calls) re-probes it
// and anti-entropy resyncs its registry. Kills persist across
// SetFault(nil) (phase boundaries) until a replica-restart fault. A
// one-replica tier routes every request to replica-0, whose seed+0
// stream is the scenario's own.
type virtualCluster struct {
	*cluster.Cluster
	key      string
	replicas []*virtualReplica
	dead     atomic.Int64 // requests refused with every replica down
}

// virtualReplica is a real cluster.Replica whose Predict is answered by
// its own virtualTarget instead of the serving runtime: the request row
// carries the offered load, the answer row the modelled latency in
// nanoseconds.
type virtualReplica struct {
	*cluster.Replica
	model *virtualTarget
}

// Predict fails with ErrReplicaDown while the replica is killed, else
// resolves the request on the replica's latency/shedding model.
func (r *virtualReplica) Predict(_ context.Context, _ string, rows [][]float64) ([][]float64, []int, error) {
	if r.Runtime() == nil {
		return nil, nil, fmt.Errorf("replica %s: %w", r.ID(), cluster.ErrReplicaDown)
	}
	lat, err := r.model.Sample(rows[0][0])
	return [][]float64{{float64(lat)}}, nil, err
}

// newVirtualCluster joins n replicas ("replica-0"...) to a tier on clk
// and registers model under name, the routing key every request
// carries. Replica i draws from its own seed+i stream, so routing
// decides which stream advances and determinism survives failover.
func newVirtualCluster(clk clock.Clock, n int, seed int64, name string, model ml.Classifier) (*virtualCluster, error) {
	tier := cluster.New(cluster.Config{HeartbeatInterval: heartbeatEvery, Clock: clk})
	vc := &virtualCluster{Cluster: tier, key: name}
	for i := 0; i < n; i++ {
		r := &virtualReplica{
			Replica: cluster.NewReplica(fmt.Sprintf("replica-%d", i), serving.Config{Clock: clk}),
			model:   newVirtualTarget(seed + int64(i)),
		}
		if err := tier.Join(r); err != nil {
			return nil, err
		}
		vc.replicas = append(vc.replicas, r)
	}
	if _, err := tier.Register(name, model); err != nil {
		return nil, err
	}
	return vc, nil
}

// SetFault installs the phase fault. Replica faults act on the tier's
// replicas (and stick until reversed): a kill crashes the current shard
// owner, a restart brings every killed replica back. Every other kind —
// including nil at phase end — is forwarded to all replicas so the
// latency/error overlays apply to whichever member serves.
func (vc *virtualCluster) SetFault(f *Fault) {
	if f != nil && f.clusterFault() {
		owner := vc.Owner(vc.key)
		for _, r := range vc.replicas {
			switch {
			case f.Kind == FaultReplicaRestart:
				r.Restart()
			case r.ID() == owner:
				r.Kill()
			}
		}
		// A replica fault replaces the transient overlay for the phase.
		f = nil
	}
	for _, r := range vc.replicas {
		r.model.SetFault(f)
	}
}

// Sample routes one request through the tier and returns the serving
// replica's modelled latency and fate. With every replica down the tier
// refuses it with cluster.ErrNoReplicas.
func (vc *virtualCluster) Sample(offeredRPS float64) (time.Duration, error) {
	out, _, err := vc.Predict(context.Background(), vc.key, [][]float64{{offeredRPS}})
	if errors.Is(err, cluster.ErrNoReplicas) {
		vc.dead.Add(1)
		return virtualBase / 10, err
	}
	return time.Duration(out[0][0]), err
}

// Stats sums the per-replica injection counters, counts the tier's
// refusals as Reset, and reads Rerouted off the tier's own reroute
// counter.
func (vc *virtualCluster) Stats() ChaosStats {
	var out ChaosStats
	for _, r := range vc.replicas {
		s := r.model.Stats()
		out.Delayed += s.Delayed
		out.Errored += s.Errored
		out.Passed += s.Passed
	}
	out.Reset = vc.dead.Load()
	out.Rerouted = int64(vc.Telemetry().Counter(telemetry.FamClusterReroutes, "").With().Value())
	return out
}
