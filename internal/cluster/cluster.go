// Package cluster turns the single-process serving runtime into a
// replicated N-replica tier: shard-aware routing over a bounded-load
// consistent-hash ring (each replica's warm LRU cache stays hot for its
// shard), registry replication by push-on-promote of the sha256
// content-addressed blobs with anti-entropy reconciliation on
// join/restart, heartbeat-driven membership, and a coordinator that
// executes cluster-wide alias flips as a two-phase commit so an alias
// never points at different versions on different replicas.
//
// All timing — heartbeat sweeps, expiry, RPC timeouts, prepare TTLs —
// runs on internal/clock, so failover and interrupted promotes are
// deterministically testable on the fake clock.
package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// Config parameterizes a Cluster. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// VirtualNodes is the per-replica vnode count on the ring (default
	// 64).
	VirtualNodes int
	// LoadFactor is the bounded-load factor c (default 1.25): a shard
	// owner carrying more than c times the mean per-replica load stops
	// receiving new shard traffic and the ring walks to its successor.
	LoadFactor float64
	// HeartbeatInterval is how often Start sweeps every member's
	// heartbeat (default 1s).
	HeartbeatInterval time.Duration
	// HeartbeatExpiry is how stale a member's last successful heartbeat
	// may grow before it is marked down (default 3x the interval).
	HeartbeatExpiry time.Duration
	// PrepareTTL bounds how long a prepared-but-uncommitted alias flip
	// stays valid on a replica (default 5s).
	PrepareTTL time.Duration
	// RPCTimeout bounds each backend call the coordinator makes
	// (default 2s).
	RPCTimeout time.Duration
	// WarmBytes is the canonical registry's warm-cache budget (default
	// 128 MiB). The coordinator's copy mostly holds serialized blobs;
	// replicas do the serving.
	WarmBytes int64
	// Clock is the time source; clock.Real() when nil.
	Clock clock.Clock
	// Telemetry is the metric registry cluster metrics record into; a
	// private registry is created when nil.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = defaultVirtualNodes
	}
	if c.LoadFactor <= 1 {
		c.LoadFactor = 1.25
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.HeartbeatExpiry <= 0 {
		c.HeartbeatExpiry = 3 * c.HeartbeatInterval
	}
	if c.PrepareTTL <= 0 {
		c.PrepareTTL = 5 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.WarmBytes <= 0 {
		c.WarmBytes = 128 << 20
	}
	if c.Clock == nil {
		c.Clock = clock.Real()
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	return c
}

// member is the cluster's view of one replica. Hot-path routing state
// (up, load) is atomic so the pick path never takes the cluster lock;
// bookkeeping read only by heartbeats and Status sits behind
// Cluster.mu.
type member struct {
	id      string
	backend Backend
	met     replicaMetrics

	up atomic.Bool
	// load is the router-tracked in-flight instance count through this
	// cluster (the bounded-load and least-loaded spillover signal).
	load atomic.Int64

	// Guarded by Cluster.mu:
	lastBeat  time.Time
	inFlight  int
	models    int
	warmBytes int64
}

// routeTable is the immutable routing snapshot the predict path reads:
// a ring over the up members plus the member structs aligned with the
// ring's ID order. Rebuilt on membership
// change, swapped atomically.
type routeTable struct {
	ring    *Ring
	members []*member
}

// Cluster is the coordinator and router of a replica tier. Create with
// New, add replicas with Join, and either call TickHeartbeat from a test
// on a fake clock or Start/Stop the background sweeper.
type Cluster struct {
	cfg Config
	clk clock.Clock
	met *metrics

	// canonical is the coordinator's source-of-truth registry: every
	// Register flows through it, so version numbering is identical on
	// every replica that replays it in order.
	canonical *serving.Registry

	// coordMu serializes control-plane operations (register,
	// replication, anti-entropy, two-phase promote/rollback) so
	// replicated version numbering and alias flips are totally ordered.
	// Lock order: coordMu before mu, never the reverse. The data plane
	// (Predict, heartbeat reads) does not take it.
	coordMu sync.Mutex

	mu      sync.Mutex
	members map[string]*member
	ids     []string // sorted member IDs (deterministic sweep/2PC order)
	txnSeq  uint64

	table atomic.Pointer[routeTable]

	startMu sync.Mutex
	stop    chan struct{}
	wg      sync.WaitGroup
	started bool
}

// New builds an empty cluster from cfg.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:       cfg,
		clk:       cfg.Clock,
		met:       newMetrics(cfg.Telemetry),
		canonical: serving.NewRegistry(cfg.WarmBytes),
		members:   make(map[string]*member),
	}
	c.table.Store(&routeTable{ring: NewRing(nil, cfg.VirtualNodes)})
	return c
}

// Canonical returns the coordinator's source-of-truth registry.
func (c *Cluster) Canonical() *serving.Registry { return c.canonical }

// Telemetry returns the metric registry cluster metrics record into.
func (c *Cluster) Telemetry() *telemetry.Registry { return c.cfg.Telemetry }

// Join adds a replica to the cluster: probe it with a heartbeat, run
// anti-entropy reconciliation so its registry catches up with the
// canonical one, and rebuild the ring. A replica that fails the probe
// still becomes a member — marked down, to be healed by later heartbeat
// sweeps once it answers.
func (c *Cluster) Join(b Backend) error {
	id := b.ID()
	if id == "" {
		return fmt.Errorf("cluster: replica with empty ID")
	}
	c.mu.Lock()
	if _, dup := c.members[id]; dup {
		c.mu.Unlock()
		return fmt.Errorf("cluster: duplicate replica ID %q", id)
	}
	m := &member{id: id, backend: b, met: c.met.forReplica(id), lastBeat: c.clk.Now()}
	c.members[id] = m
	c.ids = append(c.ids, id)
	sort.Strings(c.ids)
	c.mu.Unlock()

	if err := c.probe(m); err != nil {
		m.up.Store(false)
		m.met.up.Set(0)
		c.rebuild()
		return fmt.Errorf("cluster: join %s: %w (joined as down)", id, err)
	}
	c.rebuild()
	return nil
}

// probe heartbeats one member and, on success, anti-entropy-syncs its
// registry and marks it up. Called on join and when a down member's
// heartbeat answers again (restart recovery).
func (c *Cluster) probe(m *member) error {
	info, err := c.heartbeatOne(m)
	if err != nil {
		return err
	}
	if err := c.syncBackend(m); err != nil {
		return err
	}
	c.mu.Lock()
	m.lastBeat = c.clk.Now()
	m.inFlight = info.InFlight
	m.models = info.Models
	m.warmBytes = info.WarmBytes
	c.mu.Unlock()
	m.up.Store(true)
	m.met.up.Set(1)
	m.met.hbAge.Set(0)
	return nil
}

// heartbeatOne calls one member's Heartbeat under the RPC timeout.
func (c *Cluster) heartbeatOne(m *member) (HeartbeatInfo, error) {
	var info HeartbeatInfo
	err := c.callWithTimeout(func(ctx context.Context) error {
		var err error
		info, err = m.backend.Heartbeat(ctx)
		return err
	})
	return info, err
}

// TickHeartbeat runs one synchronous heartbeat sweep over every member
// in sorted-ID order: refresh load reports, expire members whose last
// successful heartbeat is older than HeartbeatExpiry, and re-probe
// (anti-entropy included) members that were down but answer again.
// Start calls it on a ticker; deterministic tests call it directly
// after advancing the fake clock.
func (c *Cluster) TickHeartbeat() {
	c.mu.Lock()
	sweep := make([]*member, 0, len(c.ids))
	for _, id := range c.ids {
		sweep = append(sweep, c.members[id])
	}
	c.mu.Unlock()

	changed := false
	for _, m := range sweep {
		wasUp := m.up.Load()
		if !wasUp {
			// Down member: re-probe. Success means it restarted (or the
			// partition healed) — sync it and bring it back.
			if err := c.probe(m); err == nil {
				changed = true
			} else {
				c.mu.Lock()
				age := c.clk.Since(m.lastBeat)
				c.mu.Unlock()
				m.met.hbAge.Set(age.Seconds())
			}
			continue
		}
		info, err := c.heartbeatOne(m)
		now := c.clk.Now()
		if err == nil {
			c.mu.Lock()
			m.lastBeat = now
			m.inFlight = info.InFlight
			m.models = info.Models
			m.warmBytes = info.WarmBytes
			c.mu.Unlock()
			// A concurrent markDown may have demoted the member after this
			// heartbeat answered; don't overwrite its gauge.
			if m.up.Load() {
				m.met.up.Set(1)
			}
			m.met.hbAge.Set(0)
			continue
		}
		c.mu.Lock()
		age := now.Sub(m.lastBeat)
		c.mu.Unlock()
		m.met.hbAge.Set(age.Seconds())
		if age >= c.cfg.HeartbeatExpiry {
			// CAS so an expiry racing markDown demotes (and rebuilds) once.
			if m.up.CompareAndSwap(true, false) {
				m.met.up.Set(0)
				changed = true
			}
		}
	}
	if changed {
		c.rebuild()
	}
}

// markDown demotes a member immediately (error-driven failover: a
// predict or replication call saw ErrReplicaDown) without waiting for
// heartbeat expiry.
func (c *Cluster) markDown(m *member) {
	if m.up.CompareAndSwap(true, false) {
		m.met.up.Set(0)
		c.rebuild()
	}
}

// rebuild recomputes the route table from the up member set and
// swaps it in, counting vnode ownership moves into ring-moves telemetry.
func (c *Cluster) rebuild() {
	c.mu.Lock()
	ids := make([]string, 0, len(c.ids))
	for _, id := range c.ids {
		m := c.members[id]
		if m.up.Load() {
			ids = append(ids, id)
		}
	}
	ring := NewRing(ids, c.cfg.VirtualNodes)
	ringIDs := ring.IDs()
	members := make([]*member, len(ringIDs))
	for i, id := range ringIDs {
		members[i] = c.members[id]
	}
	// The swap stays under c.mu: two racing rebuilds could otherwise
	// publish in the wrong order and pin a stale table (a demoted member
	// kept in the ring) until the next membership change.
	old := c.table.Load()
	c.table.Store(&routeTable{ring: ring, members: members})
	c.mu.Unlock()

	if moves := Moves(old.ring, ring); moves > 0 {
		c.met.ringMoves.Add(float64(moves))
	}
}

// loadBound computes the bounded-load ceiling for the current table:
// ceil(c * (totalLoad + 1) / routableReplicas). A member at or past the
// bound stops taking new shard traffic.
func loadBound(t *routeTable, factor float64) int64 {
	n := len(t.members)
	if n == 0 {
		return math.MaxInt64
	}
	var total int64
	for _, m := range t.members {
		total += m.load.Load()
	}
	return int64(math.Ceil(factor * float64(total+1) / float64(n)))
}

// Start launches the background heartbeat sweeper on the configured
// interval. Stop ends it. Tests on a fake clock usually skip Start and
// drive TickHeartbeat directly.
func (c *Cluster) Start() {
	c.startMu.Lock()
	defer c.startMu.Unlock()
	if c.started {
		return
	}
	c.started = true
	c.stop = make(chan struct{})
	// Captured locally: the sweeper must not read c.stop, which a later
	// Start for the next run cycle reassigns without startMu held here.
	stop := c.stop
	ticker := c.clk.NewTicker(c.cfg.HeartbeatInterval)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C():
				c.TickHeartbeat()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the heartbeat sweeper started by Start. Idempotent.
func (c *Cluster) Stop() {
	c.startMu.Lock()
	defer c.startMu.Unlock()
	if !c.started {
		return
	}
	c.started = false
	close(c.stop)
	c.wg.Wait()
}

// ReplicaStatus is one member's row in Status.
type ReplicaStatus struct {
	ID             string `json:"id"`
	Up             bool   `json:"up"`
	Load           int64  `json:"load"`
	InFlight       int    `json:"inFlight"`
	Models         int    `json:"models"`
	WarmBytes      int64  `json:"warmBytes"`
	HeartbeatAgeMs int64  `json:"heartbeatAgeMs"`
}

// StatusInfo is the cluster-wide state exposed at /cluster/status and
// consumed by the dashboard and the CI smoke check. Field order and
// sorted replicas keep its JSON encoding byte-deterministic on a fake
// clock.
type StatusInfo struct {
	Replicas     []ReplicaStatus     `json:"replicas"`
	RingMembers  []string            `json:"ringMembers"`
	VirtualNodes int                 `json:"virtualNodes"`
	Aliases      []serving.AliasInfo `json:"aliases"`
}

// Status snapshots the cluster.
func (c *Cluster) Status() StatusInfo {
	t := c.table.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	st := StatusInfo{
		RingMembers:  append([]string(nil), t.ring.IDs()...),
		VirtualNodes: c.cfg.VirtualNodes,
		Aliases:      c.canonical.Aliases(),
	}
	for _, id := range c.ids {
		m := c.members[id]
		st.Replicas = append(st.Replicas, ReplicaStatus{
			ID:             id,
			Up:             m.up.Load(),
			Load:           m.load.Load(),
			InFlight:       m.inFlight,
			Models:         m.models,
			WarmBytes:      m.warmBytes,
			HeartbeatAgeMs: now.Sub(m.lastBeat).Milliseconds(),
		})
	}
	return st
}
