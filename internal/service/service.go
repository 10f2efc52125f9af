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

// base builds the shared surface of a service: /healthz, the
// Prometheus exposition at /metrics, span JSON at /traces, and telemetry
// middleware (metrics + trace propagation) around every handler
// registered via handle.
type base struct {
	name    string
	mux     *http.ServeMux
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
