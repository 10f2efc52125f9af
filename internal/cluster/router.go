package cluster

import (
	"context"
	"errors"
	"strings"
)

// This file is the cluster's data plane: shard-aware replica selection
// and the predict path with error-driven failover.

// ShardKey maps a model reference onto its routing key: the alias name
// with any @version suffix stripped, so every version of one model —
// "lgbm", "lgbm@2", "lgbm@latest" — lands on the same shard owner and
// that replica's warm cache survives promotes. Raw content ids shard as
// themselves.
func ShardKey(ref string) string {
	if strings.HasPrefix(ref, "sha256:") {
		return ref
	}
	if i := strings.IndexByte(ref, '@'); i >= 0 {
		return ref[:i]
	}
	return ref
}

// pick selects the member to route ref's request to: the shard owner
// when it is under the bounded-load ceiling, else the first ring
// successor under it, else (every routable member saturated) the
// least-loaded member — the existing least-loaded balancer as the
// spillover of last resort. rerouted reports whether the choice is not
// the shard owner. Returns nil when no member is routable.
func (c *Cluster) pick(t *routeTable, key string) (m *member, rerouted bool) {
	if t.ring.Len() == 0 {
		return nil, false
	}
	bound := loadBound(t, loadFactor)
	var chosen *member
	first := true
	ownerIsChoice := false
	t.ring.Walk(key, func(i int) bool {
		cand := t.members[i]
		// Membership can change between table swap and walk; re-check the
		// live flag so a just-killed member is skipped.
		if !cand.up.Load() {
			first = false
			return true
		}
		if cand.load.Load() < bound {
			chosen = cand
			ownerIsChoice = first
			return false
		}
		first = false
		return true
	})
	if chosen != nil {
		return chosen, !ownerIsChoice
	}
	// Every ring member is at the bound: spill to least-loaded.
	var best *member
	var bestLoad int64
	for _, cand := range t.members {
		if !cand.up.Load() {
			continue
		}
		if l := cand.load.Load(); best == nil || l < bestLoad {
			best, bestLoad = cand, l
		}
	}
	return best, best != nil
}

// Owner reports the current shard owner's replica ID for a model
// reference ("" when the ring is empty). Tests and the failover smoke
// use it to find which replica to kill.
func (c *Cluster) Owner(ref string) string {
	return c.table.Load().ring.OwnerID(ShardKey(ref))
}

// Predict routes instances to ref's shard owner (with bounded-load
// spillover) and scores them there. A replica that turns out to be dead
// is demoted immediately and the request reroutes to the next candidate
// — callers see ErrNoReplicas only when the whole tier is gone.
// Overload sheds (serving.OverloadedError) propagate to the caller as
// admission-control signals, not failover triggers.
func (c *Cluster) Predict(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error) {
	if len(instances) == 0 {
		return nil, nil, nil
	}
	key := ShardKey(ref)
	n := int64(len(instances))
	// Each failed attempt marks a member down and shrinks the table, so
	// the membership size bounds the retry loop.
	c.mu.Lock()
	attempts := len(c.ids) + 1
	c.mu.Unlock()
	for a := 0; a < attempts; a++ {
		t := c.table.Load()
		m, rerouted := c.pick(t, key)
		if m == nil {
			return nil, nil, ErrNoReplicas
		}
		if rerouted {
			c.met.reroutes.Inc()
		}
		m.load.Add(n)
		probs, classes, err := m.backend.Predict(ctx, ref, instances)
		m.load.Add(-n)
		if err != nil && errors.Is(err, ErrReplicaDown) {
			c.markDown(m)
			// The retry lands on the rebuilt ring's owner — still a
			// reroute from the dead member's perspective.
			c.met.reroutes.Inc()
			continue
		}
		return probs, classes, err
	}
	return nil, nil, ErrNoReplicas
}
