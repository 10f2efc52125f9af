package main

import (
	"time"

	"repro/internal/telemetry"
)

// drainEvery is how often a traced window empties the span rings. They
// hold 1 024 (gateway) and 512 (service) spans, so at the highest rate a
// workload reaches (predict_single, ~740/s) a ring wraps in 0.7 s.
const drainEvery = 100 * time.Millisecond

// servingCounts is what the serving runtimes' registries have counted so
// far, summed over the deployment's runtimes.
type servingCounts struct {
	predictions, shed, coldLoads float64
	perRuntime                   []float64 // predictions, one entry per runtime
	batches                      uint64
	batchRows                    float64
	latBounds                    []float64
	latCounts                    []uint64
}

func readServing(regs []*telemetry.Registry) servingCounts {
	var c servingCounts
	for _, reg := range regs {
		for _, fam := range reg.Gather() {
			if len(fam.Series) == 0 {
				continue
			}
			se := fam.Series[0] // every serving family is unlabeled
			switch fam.Name {
			case "spatial_serving_predictions_total":
				c.predictions += se.Value
				c.perRuntime = append(c.perRuntime, se.Value)
			case "spatial_serving_shed_total":
				c.shed += se.Value
			case "spatial_serving_cold_loads_total":
				c.coldLoads += se.Value
			case "spatial_serving_batch_size":
				c.batches += se.Count
				c.batchRows += se.Sum
			case "spatial_serving_batch_latency_seconds":
				c.latBounds = fam.Buckets
				if c.latCounts == nil {
					c.latCounts = make([]uint64, len(se.BucketCounts))
				}
				for i, n := range se.BucketCounts {
					c.latCounts[i] += n
				}
			}
		}
	}
	return c
}

// bucketQuantile estimates the q-quantile of per-bucket (not cumulative)
// counts by linear interpolation inside the owning bucket; the last
// entry of counts is the overflow bucket.
func bucketQuantile(q float64, bounds []float64, counts []uint64) float64 {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, n := range counts {
		if n > 0 && float64(cum+n) >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	return bounds[len(bounds)-1]
}

func counterValue(reg *telemetry.Registry, family string) float64 {
	for _, fam := range reg.Gather() {
		if fam.Name == family && len(fam.Series) > 0 {
			return fam.Series[0].Value
		}
	}
	return 0
}

// tracedWindow drives w like a timed window while draining the gateway's
// and the services' span rings, then joins those spans to the client's
// samples by trace id and reads what the telemetry registries counted.
// It returns only the metrics this workload can speak for.
func tracedWindow(st *stack, w *workload, warm, length time.Duration) (window, map[string]float64, error) {
	tracers := append([]*telemetry.Tracer{st.gw.Tracer()}, st.serviceTracers()...)
	spans := map[string]telemetry.Span{} // by span id: a ring is read many times
	drain := func() {
		for _, t := range tracers {
			for _, s := range t.Spans("", 0) {
				spans[s.SpanID] = s
			}
		}
	}
	before := readServing(st.servingTelemetry())
	var reroutesBefore float64
	if st.tier != nil {
		reroutesBefore = counterValue(st.tier.cluster.Telemetry(), "spatial_cluster_reroutes_total")
	}

	l, err := drive(st.base, w, warm, length, func(stop <-chan struct{}) {
		tick := time.NewTicker(drainEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				drain()
			case <-stop:
				return
			}
		}
	})
	if err != nil {
		return window{}, nil, err
	}
	drain()
	win := reduce(l, w.limit)
	out := map[string]float64{
		"loadgen.latency_p99_ms":     percentile(win.lat[clsOp], 0.99),
		"loadgen.within_limit_share": win.withinLimit,
		"loadgen.slice_spread":       spread(win.sliceRPS),
	}
	for class, name := range map[uint8]string{clsSHAP: "loadgen.shap_p50_ms", clsLIME: "loadgen.lime_p50_ms", clsPromote: "loadgen.promote_p50_ms"} {
		if len(win.lat[class]) > 0 {
			out[name] = percentile(win.lat[class], 0.5)
		}
	}

	// Join: the server-side spans of the requests the client saw finish.
	byTrace := map[string][]telemetry.Span{}
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	var gwMS, svcMS []float64
	requests := 0
	for _, s := range l.samples {
		if s.trace == "" || s.class == clsPromote {
			continue
		}
		requests++
		for _, sp := range byTrace[s.trace] {
			if sp.Service == "gateway" {
				gwMS = append(gwMS, sp.Duration)
			} else {
				svcMS = append(svcMS, sp.Duration)
			}
		}
	}
	if len(gwMS) > 0 {
		out["gateway.span_p50_ms"] = median(gwMS)
	}
	if len(svcMS) > 0 {
		out["service.span_p50_ms"] = median(svcMS)
	}

	// Counters, over the whole drive (warm-up included, on both sides of
	// every ratio).
	after := readServing(st.servingTelemetry())
	if batches := after.batches - before.batches; batches > 0 {
		scored := after.predictions - before.predictions
		shed := after.shed - before.shed
		out["serving.batch_size_mean"] = (after.batchRows - before.batchRows) / float64(batches)
		out["serving.shed_share"] = shed / (scored + shed)
		out["serving.cold_loads"] = after.coldLoads - before.coldLoads
		delta := make([]uint64, len(after.latCounts))
		for i := range delta {
			delta[i] = after.latCounts[i]
			if i < len(before.latCounts) {
				delta[i] -= before.latCounts[i]
			}
		}
		out["serving.batch_latency_p50_ms"] = 1e3 * bucketQuantile(0.5, after.latBounds, delta)
	}
	if st.tier != nil && requests > 0 {
		reroutes := counterValue(st.tier.cluster.Telemetry(), "spatial_cluster_reroutes_total") - reroutesBefore
		out["cluster.reroute_share"] = reroutes / float64(requests)
		var busiest, total float64
		for i, n := range after.perRuntime {
			n -= before.perRuntime[i]
			busiest = max(busiest, n)
			total += n
		}
		if total > 0 {
			out["cluster.owner_skew"] = busiest / (total / float64(len(after.perRuntime)))
		}
	}
	return win, out, nil
}
