package cluster

import (
	"repro/internal/telemetry"
)

// metrics bundles the cluster's telemetry handles. All per-replica
// series are bound once per member at Join time — the replica set is
// operator-configured and fixed, so cardinality is bounded by topology,
// not traffic.
type metrics struct {
	ringMoves *telemetry.Counter
	reroutes  *telemetry.Counter

	up        *telemetry.GaugeVec
	hbAge     *telemetry.GaugeVec
	replBytes *telemetry.CounterVec
}

// replicaMetrics is one member's pre-bound handles.
type replicaMetrics struct {
	up        *telemetry.Gauge
	hbAge     *telemetry.Gauge
	replBytes *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) *metrics {
	return &metrics{
		ringMoves: reg.Counter(telemetry.FamClusterRingMoves,
			"Vnode ownership moves across consistent-hash ring rebuilds.").With(),
		reroutes: reg.Counter(telemetry.FamClusterReroutes,
			"Requests routed away from their shard owner (saturated or down).").With(),
		up: reg.Gauge(telemetry.FamClusterReplicaUp,
			"1 while the replica's heartbeat is fresh, 0 when expired or killed.", "replica"),
		hbAge: reg.Gauge(telemetry.FamClusterHeartbeatAge,
			"Seconds since the replica's last successful heartbeat.", "replica"),
		replBytes: reg.Counter(telemetry.FamClusterReplicationBytes,
			"Model-envelope bytes pushed to the replica (promote replication + anti-entropy).", "replica"),
	}
}

// forReplica binds the per-replica series for one member. Called once
// per Join: replica IDs come from the operator's topology, never from
// request input, so the label set stays bounded.
func (m *metrics) forReplica(id string) replicaMetrics {
	return replicaMetrics{
		//lint:ignore telemetry-cardinality replica IDs are fixed at topology construction (one Join per configured member), not request-derived
		up: m.up.With(id),
		//lint:ignore telemetry-cardinality replica IDs are fixed at topology construction (one Join per configured member), not request-derived
		hbAge: m.hbAge.With(id),
		//lint:ignore telemetry-cardinality replica IDs are fixed at topology construction (one Join per configured member), not request-derived
		replBytes: m.replBytes.With(id),
	}
}
