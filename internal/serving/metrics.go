package serving

import (
	"repro/internal/telemetry"
)

// defBatchSizeBuckets are the batch-size histogram bounds: powers of two
// up to the default MaxBatch and one beyond, so the size distribution
// shows whether flushes are size-bound (full batches) or latency-bound
// (small ones).
var defBatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// metrics bundles the runtime's telemetry handles. Every series is
// unlabeled: the model set is request-driven and unbounded, so putting
// model names in labels would explode cardinality (the exact leak
// spatial-lint's telemetry-cardinality check exists to prevent).
type metrics struct {
	predictions  *telemetry.Counter
	shed         *telemetry.Counter
	abandoned    *telemetry.Counter
	coldLoads    *telemetry.Counter
	evictions    *telemetry.Counter
	models       *telemetry.Gauge
	warmBytes    *telemetry.Gauge
	queueDepth   *telemetry.Gauge
	batchSize    *telemetry.Histogram
	batchLatency *telemetry.Histogram
}

// The registry helpers below are nil-receiver-safe so a standalone
// NewRegistry (no telemetry) shares the same code paths.

func (m *metrics) setModels(n int) {
	if m != nil {
		m.models.Set(float64(n))
	}
}

func (m *metrics) setWarmBytes(b int64) {
	if m != nil {
		m.warmBytes.Set(float64(b))
	}
}

func (m *metrics) incColdLoads() {
	if m != nil {
		m.coldLoads.Inc()
	}
}

func (m *metrics) incEvictions() {
	if m != nil {
		m.evictions.Inc()
	}
}

func newMetrics(reg *telemetry.Registry) *metrics {
	return &metrics{
		predictions: reg.Counter("spatial_serving_predictions_total",
			"Instances scored by the serving runtime.").With(),
		shed: reg.Counter("spatial_serving_shed_total",
			"Instances shed by admission control past the queue watermark.").With(),
		abandoned: reg.Counter("spatial_serving_abandoned_total",
			"Queued instances dropped unscored because their caller stopped waiting.").With(),
		coldLoads: reg.Counter("spatial_serving_cold_loads_total",
			"Registry models deserialized on demand (warm-cache misses).").With(),
		evictions: reg.Counter("spatial_serving_evictions_total",
			"Warm models evicted back to serialized bytes by the LRU budget.").With(),
		models: reg.Gauge("spatial_serving_registry_models",
			"Distinct content-addressed models in the registry.").With(),
		warmBytes: reg.Gauge("spatial_serving_warm_bytes",
			"Serialized bytes of models currently warm in the registry cache.").With(),
		queueDepth: reg.Gauge("spatial_serving_queue_depth",
			"In-flight instances across all model lines (queued + batching + executing).").With(),
		batchSize: reg.Histogram("spatial_serving_batch_size",
			"Instances per executed micro-batch.", defBatchSizeBuckets).With(),
		batchLatency: reg.Histogram("spatial_serving_batch_latency_seconds",
			"Seconds from first enqueue to batch completion.", nil).With(),
	}
}
