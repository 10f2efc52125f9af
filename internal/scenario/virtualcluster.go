package scenario

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
)

// VirtualCluster is the sharded counterpart of VirtualTarget: N virtual
// replicas behind the same bounded-load consistent-hash ring the real
// internal/cluster tier routes with. Every request for the scenario's
// routing key lands on its shard owner until a replica-kill fault takes
// the owner out, at which point the ring walk reroutes to the next live
// member and the Rerouted counter ticks — the deterministic stand-in
// for the cluster failover the real tier performs. Kills persist across
// SetFault(nil) (phase boundaries) until a replica-restart fault
// revives the member, so a campaign can hold a replica down across
// several phases and score the recovery after the restart.
type VirtualCluster struct {
	key  string
	ids  []string
	ring *cluster.Ring

	mu       sync.Mutex
	replicas []*VirtualTarget
	down     []bool
	rerouted int64
	dead     int64 // requests refused because every replica was down
}

// NewVirtualCluster builds n virtual replicas ("replica-0"...) sharing
// one routing key. Each replica draws from its own seed+index stream so
// routing decides which stream advances and determinism survives
// failover.
func NewVirtualCluster(n int, seed int64, key string) *VirtualCluster {
	vc := &VirtualCluster{
		key:      key,
		ids:      make([]string, n),
		replicas: make([]*VirtualTarget, n),
		down:     make([]bool, n),
	}
	for i := 0; i < n; i++ {
		vc.ids[i] = fmt.Sprintf("replica-%d", i)
	}
	// Ring.Walk reports indices into the ring's sorted ID list; keep
	// vc.ids in that exact order so the indices line up.
	sort.Strings(vc.ids)
	for i := 0; i < n; i++ {
		vc.replicas[i] = NewVirtualTarget(seed + int64(i))
	}
	vc.ring = cluster.NewRing(vc.ids, 0)
	return vc
}

// Owner returns the live member currently serving the routing key, or
// "" when the whole tier is down.
func (vc *VirtualCluster) Owner() string {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	idx, _ := vc.pickLocked()
	if idx < 0 {
		return ""
	}
	return vc.ids[idx]
}

// pickLocked walks the ring from the shard owner to the first live
// member. rerouted is true when that member is not the owner.
func (vc *VirtualCluster) pickLocked() (idx int, rerouted bool) {
	owner := vc.ring.Owner(vc.key)
	idx = -1
	vc.ring.Walk(vc.key, func(i int) bool {
		if vc.down[i] {
			return true
		}
		idx = i
		return false
	})
	if idx < 0 {
		return -1, false
	}
	return idx, idx != owner
}

// SetFault installs the phase fault. Replica faults mutate the tier's
// membership (and stick until reversed): a kill takes out the member
// serving the routing key, a restart revives every member. Every other
// kind — including nil at phase end — is forwarded to all replicas so
// the latency/error overlays apply to whichever member serves.
func (vc *VirtualCluster) SetFault(f *Fault) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if f != nil && f.clusterFault() {
		if f.Kind == FaultReplicaKill {
			if idx, _ := vc.pickLocked(); idx >= 0 {
				vc.down[idx] = true
			}
		} else {
			clear(vc.down)
		}
		// A replica fault replaces the transient overlay for the phase.
		f = nil
	}
	for _, r := range vc.replicas {
		r.SetFault(f)
	}
}

// Sample routes one request through the ring and resolves it on the
// serving replica's latency/shedding model.
func (vc *VirtualCluster) Sample(offeredRPS float64) (time.Duration, error) {
	vc.mu.Lock()
	idx, rerouted := vc.pickLocked()
	if idx < 0 {
		vc.dead++
		vc.mu.Unlock()
		return virtualBase / 10, ErrInjectedReset
	}
	if rerouted {
		vc.rerouted++
	}
	r := vc.replicas[idx]
	vc.mu.Unlock()
	return r.Sample(offeredRPS)
}

// Stats sums the per-replica injection counters and adds the tier-level
// reroute/refusal counts.
func (vc *VirtualCluster) Stats() ChaosStats {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	var out ChaosStats
	for _, r := range vc.replicas {
		s := r.Stats()
		out.Delayed += s.Delayed
		out.Errored += s.Errored
		out.Reset += s.Reset
		out.Passed += s.Passed
	}
	out.Reset += vc.dead
	out.Rerouted = vc.rerouted
	return out
}
