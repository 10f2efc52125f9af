package telemetry

// Cluster metric family names recorded by internal/cluster, exported so
// the dashboard's cluster panel and the CI smoke check can find them in
// Gather output. Every family is labeled by replica ID only — a set
// fixed at topology construction, never by request input — so the
// telemetry-cardinality bound holds by construction.
const (
	// FamClusterReplicaUp is 1 while a replica's heartbeat is fresh, 0
	// once it expires or the replica is killed.
	FamClusterReplicaUp = "spatial_cluster_replica_up"
	// FamClusterRingMoves counts vnode ownership moves across ring
	// rebuilds (the rebalance cost of membership churn).
	FamClusterRingMoves = "spatial_cluster_ring_moves_total"
	// FamClusterReroutes counts requests routed away from their shard
	// owner, because it was saturated or down.
	FamClusterReroutes = "spatial_cluster_reroutes_total"
	// FamClusterReplicationBytes counts model-envelope bytes pushed to
	// replicas by promote-time replication and anti-entropy resync.
	FamClusterReplicationBytes = "spatial_cluster_replication_bytes_total"
	// FamClusterHeartbeatAge is the seconds since each replica's last
	// successful heartbeat, as of the latest sweep.
	FamClusterHeartbeatAge = "spatial_cluster_heartbeat_age_seconds"
)
