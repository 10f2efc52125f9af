// Package service implements SPATIAL's metric micro-services: the
// ML-pipeline service that trains and serves models, and one service per
// trustworthy-property metric (SHAP, LIME, occlusion sensitivity,
// resilience). Each service is an http.Handler with a JSON contract, so it
// can run in its own process behind the API gateway or be mounted in a
// single process for tests and examples. Every route is a plain function
// from a request struct to a response struct mounted through wire.Handle;
// internal/wire owns decoding, the error envelope and the status table.
package service

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/dataset"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TableJSON is the wire form of a labelled dataset.
type TableJSON struct {
	Name         string      `json:"name,omitempty"`
	FeatureNames []string    `json:"featureNames"`
	ClassNames   []string    `json:"classNames"`
	X            [][]float64 `json:"x"`
	Y            []int       `json:"y"`
}

// ToTable validates and converts the wire form into a dataset.Table.
func (tj *TableJSON) ToTable() (*dataset.Table, error) {
	t := dataset.New(tj.Name, tj.FeatureNames, tj.ClassNames)
	t.X = tj.X
	t.Y = tj.Y
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// toTable is ToTable for a request field: a table that fails validation is
// the request's fault (400), named after the field so the caller can tell
// which of several tables was bad.
func (tj *TableJSON) toTable(field string) (*dataset.Table, error) {
	t, err := tj.ToTable()
	if err != nil {
		return nil, wire.BadRequest(fmt.Errorf("%s table: %w", field, err))
	}
	return t, nil
}

// FromTable converts a dataset.Table into its wire form.
func FromTable(t *dataset.Table) TableJSON {
	return TableJSON{
		Name:         t.Name,
		FeatureNames: t.FeatureNames,
		ClassNames:   t.ClassNames,
		X:            t.X,
		Y:            t.Y,
	}
}

// Health is the payload served on every service's /healthz.
type Health struct {
	Service string `json:"service"`
	Status  string `json:"status"`
	UptimeS int64  `json:"uptimeS"`
}

// Stats is a read-only view over a service's telemetry registry,
// aggregating the per-route middleware metrics into the totals the
// paper's capacity experiments read off the deployment.
type Stats struct {
	reg *telemetry.Registry
}

// statsSkipRoutes are infrastructure routes excluded from the Stats
// aggregate — liveness polls and stats scrapes are not service load.
var statsSkipRoutes = map[string]bool{"/healthz": true, "/stats": true}

func statsSkip(labels []telemetry.Label) bool {
	for _, l := range labels {
		if l.Name == "route" && statsSkipRoutes[l.Value] {
			return true
		}
	}
	return false
}

// Snapshot returns (requests, errors, mean latency) summed across every
// instrumented application route (infrastructure routes like /healthz are
// excluded). Errors count 4xx and 5xx responses.
func (s *Stats) Snapshot() (requests, errors int64, meanLatency time.Duration) {
	if s.reg == nil {
		return 0, 0, 0
	}
	var sum float64
	var count uint64
	for _, fam := range s.reg.Gather() {
		switch fam.Name {
		case telemetry.FamRequests:
			for _, se := range fam.Series {
				if statsSkip(se.Labels) {
					continue
				}
				requests += int64(se.Value)
				for _, l := range se.Labels {
					if l.Name == "code" && (l.Value == "4xx" || l.Value == "5xx") {
						errors += int64(se.Value)
					}
				}
			}
		case telemetry.FamLatency:
			for _, se := range fam.Series {
				if statsSkip(se.Labels) {
					continue
				}
				sum += se.Sum
				count += se.Count
			}
		}
	}
	if count > 0 {
		meanLatency = time.Duration(sum / float64(count) * float64(time.Second))
	}
	return requests, errors, meanLatency
}

// base builds the shared surface of a service: /healthz, /stats, the
// Prometheus exposition at /metrics, span JSON at /traces, and telemetry
// middleware (metrics + trace propagation) around every handler
// registered via handle.
type base struct {
	name    string
	mux     *http.ServeMux
	stats   Stats
	clk     clock.Clock
	started time.Time
	tel     *telemetry.Registry
	tracer  *telemetry.Tracer
	models  *modelCache
}

func newBase(name string) *base {
	tel := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(tel)
	tracer := telemetry.NewTracer(512)
	clk := clock.Real()
	b := &base{
		name:    name,
		mux:     http.NewServeMux(),
		stats:   Stats{reg: tel},
		clk:     clk,
		started: clk.Now(),
		tel:     tel,
		tracer:  tracer,
		models:  newModelCache(tel),
	}
	b.handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		wire.Write(w, http.StatusOK, Health{
			Service: b.name,
			Status:  "ok",
			UptimeS: int64(b.clk.Since(b.started).Seconds()),
		})
	})
	b.handle("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		req, errs, mean := b.stats.Snapshot()
		wire.Write(w, http.StatusOK, map[string]any{
			"service":       b.name,
			"requests":      req,
			"errors":        errs,
			"meanLatencyMs": float64(mean.Microseconds()) / 1e3,
		})
	})
	b.mux.Handle("GET /metrics", tel.Handler())
	b.mux.Handle("GET /traces", tracer.Handler())
	return b
}

// handle registers a handler wrapped in the telemetry middleware. The
// route label is the pattern's path (method stripped) so label
// cardinality stays bounded by the registered routes.
func (b *base) handle(pattern string, h http.HandlerFunc) {
	routeLabel := pattern
	if _, path, ok := strings.Cut(pattern, " "); ok {
		routeLabel = path
	}
	mw := telemetry.NewMiddleware(telemetry.MiddlewareConfig{
		Registry: b.tel,
		Tracer:   b.tracer,
		Service:  b.name,
		Route:    func(*http.Request) string { return routeLabel },
	})
	b.mux.Handle(pattern, mw(h))
}

// Telemetry exposes the service's metric registry.
func (b *base) Telemetry() *telemetry.Registry { return b.tel }

// Tracer exposes the service's span ring buffer.
func (b *base) Tracer() *telemetry.Tracer { return b.tracer }

// ServeHTTP implements http.Handler.
func (b *base) ServeHTTP(w http.ResponseWriter, r *http.Request) { b.mux.ServeHTTP(w, r) }
