package cluster

import (
	"context"
	"fmt"

	"repro/internal/ml"
	"repro/internal/serving"
)

// This file is the cluster's control plane: registration with eager
// replication, anti-entropy reconciliation, and the two-phase
// promote/rollback that keeps alias flips atomic across replicas.
//
// Replication strategy: every Register flows through the coordinator's
// canonical registry, which owns version numbering. Replicas hold a
// per-alias version log that must be a prefix of the canonical log;
// replication and anti-entropy only ever append the missing suffix, so
// re-running either is idempotent (content addressing dedupes blob
// storage, prefix checking dedupes version numbers). A replica whose log
// is not a canonical prefix has diverged and is kept out of the ring.

// callWithTimeout runs fn under the cluster's RPC timeout, measured on
// the injected clock so timeouts are exact under test. On timeout the
// call's context is canceled and the error wraps ErrReplicaDown (an
// unresponsive transport and a dead one route the same way).
func (c *Cluster) callWithTimeout(fn func(ctx context.Context) error) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fn(ctx) }()
	select {
	case err := <-done:
		return err
	case <-c.clk.After(c.cfg.RPCTimeout):
		cancel()
		return fmt.Errorf("cluster: rpc timed out after %v: %w", c.cfg.RPCTimeout, ErrReplicaDown)
	}
}

// Register serializes model into the canonical registry as the next
// version of name and eagerly replicates it to every up replica.
// Replication failures demote the replica (anti-entropy heals it on
// rejoin) but never fail the registration: the canonical registry is
// the source of truth.
func (c *Cluster) Register(name string, model ml.Classifier) (serving.Ref, error) {
	c.coordMu.Lock()
	defer c.coordMu.Unlock()
	ref, err := c.canonical.Register(name, model)
	if err != nil {
		return ref, err
	}
	c.replicateAliasLocked(name)
	return ref, nil
}

// replicateAliasLocked pushes name's missing version suffix to every up
// member. Requires coordMu.
func (c *Cluster) replicateAliasLocked(name string) {
	want, ok := c.canonicalAlias(name)
	if !ok {
		return
	}
	for _, m := range c.upMembers() {
		if err := c.syncMemberAlias(m, want); err != nil {
			c.markDown(m)
		}
	}
}

// canonicalAlias finds one alias in the canonical registry.
func (c *Cluster) canonicalAlias(name string) (serving.AliasInfo, bool) {
	for _, a := range c.canonical.Aliases() {
		if a.Name == name {
			return a, true
		}
	}
	return serving.AliasInfo{}, false
}

// upMembers snapshots the up members in sorted-ID order (the
// deterministic iteration order every control-plane fan-out uses).
func (c *Cluster) upMembers() []*member {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*member, 0, len(c.ids))
	for _, id := range c.ids {
		if m := c.members[id]; m.up.Load() {
			out = append(out, m)
		}
	}
	return out
}

// syncMemberAlias appends want's missing version suffix to one replica,
// after verifying the replica's existing log is a canonical prefix.
func (c *Cluster) syncMemberAlias(m *member, want serving.AliasInfo) error {
	var have []serving.AliasInfo
	err := c.callWithTimeout(func(ctx context.Context) error {
		var err error
		have, err = m.backend.Aliases(ctx)
		return err
	})
	if err != nil {
		return err
	}
	var haveVersions []string
	for _, a := range have {
		if a.Name == want.Name {
			haveVersions = a.Versions
			break
		}
	}
	if len(haveVersions) > len(want.Versions) {
		return fmt.Errorf("cluster: replica %s has %d versions of %q, canonical has %d — diverged",
			m.id, len(haveVersions), want.Name, len(want.Versions))
	}
	for i, id := range haveVersions {
		if id != want.Versions[i] {
			return fmt.Errorf("cluster: replica %s version %s@%d is %s, canonical %s — diverged",
				m.id, want.Name, i+1, id, want.Versions[i])
		}
	}
	for v := len(haveVersions) + 1; v <= len(want.Versions); v++ {
		blob, algo, err := c.canonical.Blob(want.Versions[v-1])
		if err != nil {
			return err
		}
		err = c.callWithTimeout(func(ctx context.Context) error {
			got, err := m.backend.Push(ctx, want.Name, algo, blob)
			if err != nil {
				return err
			}
			if got.Version != v || got.ID != want.Versions[v-1] {
				return fmt.Errorf("cluster: replica %s pushed %s as %s@%d (%s), canonical expects @%d (%s)",
					m.id, want.Name, got.Name, got.Version, got.ID, v, want.Versions[v-1])
			}
			return nil
		})
		if err != nil {
			return err
		}
		m.met.replBytes.Add(float64(len(blob)))
	}
	return nil
}

// syncBackend is the full anti-entropy pass run on replica join and
// restart recovery: every canonical alias is prefix-checked and its
// missing suffix replayed, then the replica's promoted pointer is
// aligned with the canonical one via a single-replica prepare/commit.
func (c *Cluster) syncBackend(m *member) error {
	c.coordMu.Lock()
	defer c.coordMu.Unlock()
	for _, want := range c.canonical.Aliases() {
		if err := c.syncMemberAlias(m, want); err != nil {
			return err
		}
		if want.Current == 0 {
			continue
		}
		// Align the promoted pointer. Prepare validates the content id,
		// so a replica that somehow holds different bytes at this version
		// is caught here rather than served.
		txn := c.nextTxn(want.Name)
		id := want.Versions[want.Current-1]
		err := c.callWithTimeout(func(ctx context.Context) error {
			return m.backend.Prepare(ctx, txn, want.Name, want.Current, id, c.cfg.PrepareTTL)
		})
		if err != nil {
			return err
		}
		err = c.callWithTimeout(func(ctx context.Context) error {
			return m.backend.Commit(ctx, txn)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// nextTxn mints a deterministic transaction ID (no wall clock, no
// randomness: same seeded run, same IDs).
func (c *Cluster) nextTxn(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.txnSeq++
	return fmt.Sprintf("txn-%d-%s", c.txnSeq, name)
}

// PromoteAll atomically flips alias name to version on every up replica
// and then the canonical registry, via two-phase commit: prepare on all
// (validating version and content id), then commit on all. Any prepare
// failure or timeout aborts everywhere and leaves the alias at the old
// version on every replica. A commit failure after a successful prepare
// round demotes that replica (presumed commit; anti-entropy realigns it
// on rejoin) rather than blocking the flip.
func (c *Cluster) PromoteAll(name string, version int) error {
	c.coordMu.Lock()
	defer c.coordMu.Unlock()
	id, err := c.canonical.Resolve(fmt.Sprintf("%s@%d", name, version))
	if err != nil {
		return err
	}
	if err := c.twoPhaseLocked(name, version, id); err != nil {
		return err
	}
	return c.canonical.Promote(name, version)
}

// RollbackAll atomically restores alias name's previously promoted
// version cluster-wide, using the same two-phase flip, and returns the
// restored ref.
func (c *Cluster) RollbackAll(name string) (serving.Ref, error) {
	c.coordMu.Lock()
	defer c.coordMu.Unlock()
	ref, err := c.canonical.PeekRollback(name)
	if err != nil {
		return serving.Ref{}, err
	}
	if err := c.twoPhaseLocked(name, ref.Version, ref.ID); err != nil {
		return serving.Ref{}, err
	}
	return c.canonical.Rollback(name)
}

// twoPhaseLocked runs prepare-on-all then commit-or-abort over the up
// member set. Requires coordMu.
func (c *Cluster) twoPhaseLocked(name string, version int, id string) error {
	members := c.upMembers()
	txn := c.nextTxn(name)

	prepared := make([]*member, 0, len(members))
	for _, m := range members {
		err := c.callWithTimeout(func(ctx context.Context) error {
			return m.backend.Prepare(ctx, txn, name, version, id, c.cfg.PrepareTTL)
		})
		if err != nil {
			c.abortAll(prepared, txn)
			return fmt.Errorf("cluster: promote %s@%d aborted: replica %s prepare: %w",
				name, version, m.id, err)
		}
		prepared = append(prepared, m)
	}
	for _, m := range prepared {
		err := c.callWithTimeout(func(ctx context.Context) error {
			return m.backend.Commit(ctx, txn)
		})
		if err != nil {
			// Presumed commit: the flip proceeds; the straggler leaves the
			// ring and anti-entropy realigns its alias pointer on rejoin.
			c.markDown(m)
		}
	}
	return nil
}

// abortAll broadcasts a best-effort abort. Unknown txns are a no-op on
// the replica side, so over-aborting is safe.
func (c *Cluster) abortAll(prepared []*member, txn string) {
	for _, m := range prepared {
		err := c.callWithTimeout(func(ctx context.Context) error {
			return m.backend.Abort(ctx, txn)
		})
		if err != nil {
			// The replica will drop the stale flip when its TTL expires;
			// nothing can commit it (the txn is never reused).
			continue
		}
	}
}
