package dashboard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"html/template"
	"log"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/audit"
	"repro/internal/sensor"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Server is the AI dashboard's HTTP surface. It implements http.Handler.
// Every ingested reading is also appended to a hash-chained audit log, the
// paper's accountability requirement ("facilitates the verification of AI
// systems for potential audits").
type Server struct {
	store   *Store
	trail   *audit.Log
	mux     *http.ServeMux
	tmpl    *template.Template
	tracer  *telemetry.Tracer
	handler http.Handler
	metricH http.Handler
	traceH  http.Handler
}

// NewServer builds a dashboard server over the given store (a new store is
// created when nil).
func NewServer(store *Store) *Server {
	if store == nil {
		store = NewStore(0)
	}
	tel := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(tel)
	tracer := telemetry.NewTracer(512)
	s := &Server{
		store:   store,
		trail:   audit.NewLog(),
		mux:     http.NewServeMux(),
		tmpl:    template.Must(template.New("index").Parse(indexHTML)),
		tracer:  tracer,
		metricH: tel.Handler(),
		traceH:  tracer.Handler(),
	}
	s.handler = telemetry.NewMiddleware(telemetry.MiddlewareConfig{
		Registry: tel,
		Tracer:   tracer,
		Service:  "dashboard",
		// Collapse unknown paths into one label so scraping arbitrary
		// 404s cannot blow up metric cardinality.
		Route: func(r *http.Request) string {
			p := r.URL.Path
			if p == "/" || p == "/healthz" || strings.HasPrefix(p, "/api/") {
				return p
			}
			return "other"
		},
	})(s.mux)
	s.mux.HandleFunc("POST /api/readings", s.handleIngest)
	s.mux.HandleFunc("GET /api/sensors", s.handleSensors)
	s.mux.HandleFunc("GET /api/series", s.handleSeries)
	s.mux.HandleFunc("GET /api/summary", s.handleSummary)
	s.mux.HandleFunc("GET /api/alerts", s.handleAlerts)
	s.mux.HandleFunc("GET /api/audit", s.handleAudit)
	s.mux.HandleFunc("GET /api/audit/verify", s.handleAuditVerify)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"service":"dashboard","status":"ok"}`)
	})
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	return s
}

// Store exposes the backing store (for in-process wiring).
func (s *Server) Store() *Store { return s.store }

// Audit exposes the hash-chained audit trail.
func (s *Server) Audit() *audit.Log { return s.trail }

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	kind := audit.Kind(r.URL.Query().Get("kind"))
	wire.Write(w, http.StatusOK, s.trail.Records(kind))
}

func (s *Server) handleAuditVerify(w http.ResponseWriter, r *http.Request) {
	if err := s.trail.Verify(); err != nil {
		wire.Write(w, http.StatusConflict, map[string]any{"ok": false, "error": err.Error()})
		return
	}
	wire.Write(w, http.StatusOK, map[string]any{"ok": true, "records": s.trail.Len()})
}

// ServeHTTP implements http.Handler. The observability endpoints are
// served outside the middleware so scrapes do not count as dashboard
// traffic.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/metrics":
		s.metricH.ServeHTTP(w, r)
	case "/traces":
		s.traceH.ServeHTTP(w, r)
	default:
		s.handler.ServeHTTP(w, r)
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var reading sensor.Reading
	if err := wire.Decode(w, r, &reading); err != nil {
		wire.WriteError(w, err)
		return
	}
	if reading.Sensor == "" {
		wire.WriteError(w, wire.BadRequest(errors.New("missing sensor name")))
		return
	}
	s.store.Add(reading)
	kind := audit.KindReading
	if reading.Alert {
		kind = audit.KindAlert
	}
	if _, err := s.trail.Append(kind, reading.Sensor, reading); err != nil {
		log.Printf("dashboard: audit append: %v", err)
	}
	wire.Write(w, http.StatusAccepted, map[string]string{"status": "accepted"})
}

func (s *Server) handleSensors(w http.ResponseWriter, r *http.Request) {
	wire.Write(w, http.StatusOK, s.store.Sensors())
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("sensor")
	if name == "" {
		wire.WriteError(w, wire.BadRequest(errors.New("missing ?sensor=")))
		return
	}
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			wire.WriteError(w, wire.BadRequest(errors.New("invalid ?n=")))
			return
		}
		n = v
	}
	wire.Write(w, http.StatusOK, s.store.Series(name, n))
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	wire.Write(w, http.StatusOK, map[string]any{
		"latest": s.store.Latest(),
		"alerts": len(s.store.Alerts()),
	})
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	wire.Write(w, http.StatusOK, s.store.Alerts())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	latest := s.store.Latest()
	type row struct {
		Sensor   string
		Property string
		Value    string
		Time     string
		Alert    bool
		AlertMsg string
	}
	var rows []row
	for _, name := range s.store.Sensors() {
		rd, ok := latest[name]
		if !ok {
			continue
		}
		rows = append(rows, row{
			Sensor:   rd.Sensor,
			Property: string(rd.Property),
			Value:    strconv.FormatFloat(rd.Value, 'g', 6, 64),
			Time:     rd.Time.Format("15:04:05"),
			Alert:    rd.Alert,
			AlertMsg: rd.AlertMsg,
		})
	}
	var buf bytes.Buffer
	if err := s.tmpl.Execute(&buf, map[string]any{
		"Rows":   rows,
		"Alerts": s.store.Alerts(),
		"Spans":  s.tracer.Len(),
	}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if _, err := w.Write(buf.Bytes()); err != nil {
		return
	}
}

const indexHTML = `<!DOCTYPE html>
<html><head><title>SPATIAL AI Dashboard</title>
<style>
body{font-family:sans-serif;margin:2rem;background:#fafafa}
table{border-collapse:collapse;min-width:40rem}
th,td{border:1px solid #ccc;padding:.4rem .8rem;text-align:left}
th{background:#eee}
.alert{background:#ffe0e0}
h1{font-size:1.4rem}
</style></head>
<body>
<h1>SPATIAL AI Dashboard</h1>
<p>Latest trustworthy-property measurements collected by the AI sensors.</p>
<table>
<tr><th>Sensor</th><th>Property</th><th>Value</th><th>Time</th><th>Status</th></tr>
{{range .Rows}}<tr{{if .Alert}} class="alert"{{end}}>
<td>{{.Sensor}}</td><td>{{.Property}}</td><td>{{.Value}}</td><td>{{.Time}}</td>
<td>{{if .Alert}}ALERT: {{.AlertMsg}}{{else}}ok{{end}}</td></tr>
{{end}}
</table>
<p>{{len .Alerts}} alert(s) recorded.</p>
<p>Telemetry of this dashboard process: metrics at
<a href="/metrics">/metrics</a>, {{.Spans}} span(s) retained at
<a href="/traces">/traces</a>.</p>
</body></html>`

// Client publishes sensor readings to a dashboard over HTTP through
// wire.DefaultClient (30 s timeout), so a hung dashboard cannot hang a
// sensor forever; it implements sensor.Sink.
type Client struct {
	// BaseURL is the dashboard root, e.g. "http://localhost:8088".
	BaseURL string
}

var _ sensor.Sink = (*Client)(nil)

// Publish implements sensor.Sink.
func (c *Client) Publish(ctx context.Context, r sensor.Reading) error {
	if err := wire.Do(ctx, nil, http.MethodPost, c.BaseURL+"/api/readings", nil, r, nil); err != nil {
		return fmt.Errorf("publish reading: %w", err)
	}
	return nil
}

// StoreSink adapts a Store to sensor.Sink for in-process wiring.
type StoreSink struct{ Store *Store }

var _ sensor.Sink = StoreSink{}

// Publish implements sensor.Sink.
func (s StoreSink) Publish(_ context.Context, r sensor.Reading) error {
	s.Store.Add(r)
	return nil
}
