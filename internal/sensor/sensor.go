// Package sensor implements SPATIAL's AI sensors: software probes
// instrumented into an application that periodically quantify one
// trustworthy property of its AI component (performance, explainability,
// resilience, fairness, ...) and publish the measurements toward the AI
// dashboard.
//
// A Sensor wraps a Collector (usually an API call to a metric
// micro-service through the gateway) with a sampling interval and optional
// alert thresholds; a Manager owns the sensors' goroutine lifecycles.
package sensor

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// Property names the trustworthy property a sensor gauges.
type Property string

// Trustworthy properties monitored by the reproduction's sensors.
const (
	PropPerformance    Property = "performance"
	PropExplainability Property = "explainability"
	PropResilience     Property = "resilience"
	PropFairness       Property = "fairness"
	PropPrivacy        Property = "privacy"
)

// Reading is one sensor measurement.
type Reading struct {
	Sensor   string             `json:"sensor"`
	Property Property           `json:"property"`
	Value    float64            `json:"value"`
	Detail   map[string]float64 `json:"detail,omitempty"`
	Time     time.Time          `json:"time"`
	Alert    bool               `json:"alert"`
	AlertMsg string             `json:"alertMsg,omitempty"`
}

// Collector produces one measurement. Implementations typically call a
// metric micro-service.
type Collector interface {
	Collect(ctx context.Context) (value float64, detail map[string]float64, err error)
}

// CollectorFunc adapts a function to Collector.
type CollectorFunc func(ctx context.Context) (float64, map[string]float64, error)

// Collect implements Collector.
func (f CollectorFunc) Collect(ctx context.Context) (float64, map[string]float64, error) {
	return f(ctx)
}

// Sink consumes readings (e.g. the dashboard ingest API).
type Sink interface {
	Publish(ctx context.Context, r Reading) error
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(ctx context.Context, r Reading) error

// Publish implements Sink.
func (f SinkFunc) Publish(ctx context.Context, r Reading) error { return f(ctx, r) }

// Sensor describes one AI sensor.
type Sensor struct {
	// Name uniquely identifies the sensor within a Manager.
	Name string
	// Property is the trustworthy property being gauged.
	Property Property
	// Interval is the sampling period (default 1s).
	Interval time.Duration
	// Collector produces the measurement.
	Collector Collector
	// Min, when set, bounds acceptable values from below: a reading
	// under it raises an alert. Nil leaves the sensor unbounded.
	Min *float64
}

// check returns an alert message for a value under Min, or "".
func (s *Sensor) check(v float64) string {
	if s.Min != nil && v < *s.Min {
		return fmt.Sprintf("value %.4g below minimum %.4g", v, *s.Min)
	}
	return ""
}

func (s *Sensor) validate() error {
	if s.Name == "" {
		return fmt.Errorf("sensor: missing name")
	}
	if s.Property == "" {
		return fmt.Errorf("sensor %q: missing property", s.Name)
	}
	if s.Collector == nil {
		return fmt.Errorf("sensor %q: missing collector", s.Name)
	}
	return nil
}

// managerMetrics are the telemetry handles a Manager records into once
// UseTelemetry is called.
type managerMetrics struct {
	collects      *telemetry.CounterVec
	collectErrors *telemetry.CounterVec
	publishErrors *telemetry.CounterVec
	alerts        *telemetry.CounterVec
	duration      *telemetry.HistogramVec
	lastValue     *telemetry.GaugeVec

	mu       sync.Mutex
	bySensor map[string]*sensorMetrics
}

// sensorMetrics are the label-bound handles for one sensor, resolved
// once so the per-collection hot path skips the vec lookups.
type sensorMetrics struct {
	collects      *telemetry.Counter
	collectErrors *telemetry.Counter
	publishErrors *telemetry.Counter
	alerts        *telemetry.Counter
	duration      *telemetry.Histogram
	lastValue     *telemetry.Gauge
}

// forSensor binds (once) the metric handles for the named sensor. The
// "sensor" label space is bounded by configuration: Register rejects
// duplicates and registration closes at Start.
func (t *managerMetrics) forSensor(name string) *sensorMetrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	if sm, ok := t.bySensor[name]; ok {
		return sm
	}
	sm := &sensorMetrics{
		collects:      t.collects.With(name),      //lint:ignore telemetry-cardinality sensor names are a fixed registration-time set
		collectErrors: t.collectErrors.With(name), //lint:ignore telemetry-cardinality sensor names are a fixed registration-time set
		publishErrors: t.publishErrors.With(name), //lint:ignore telemetry-cardinality sensor names are a fixed registration-time set
		alerts:        t.alerts.With(name),        //lint:ignore telemetry-cardinality sensor names are a fixed registration-time set
		duration:      t.duration.With(name),      //lint:ignore telemetry-cardinality sensor names are a fixed registration-time set
		lastValue:     t.lastValue.With(name),     //lint:ignore telemetry-cardinality sensor names are a fixed registration-time set
	}
	t.bySensor[name] = sm
	return sm
}

// Manager owns a set of sensors and their sampling goroutines.
type Manager struct {
	sink  Sink
	clock clock.Clock

	mu      sync.Mutex
	sensors map[string]*Sensor
	last    map[string]Reading
	tel     *managerMetrics

	running bool
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// NewManager builds a manager publishing to sink (which may be nil when
// callers only need Last/CollectOnce).
func NewManager(sink Sink) *Manager {
	return &Manager{
		sink:    sink,
		clock:   clock.Real(),
		sensors: make(map[string]*Sensor),
		last:    make(map[string]Reading),
	}
}

// UseClock overrides the manager's time source (sampling tickers, reading
// timestamps, and collection durations). Call before Start; tests inject
// clock.Fake so detection-delay assertions run on a virtual timeline
// instead of racing the scheduler.
func (m *Manager) UseClock(c clock.Clock) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c != nil && !m.running {
		m.clock = c
	}
}

// UseTelemetry makes the manager record per-sensor collection metrics
// (attempts, failures, durations, alerts, publish failures, and the last
// measured value) into the registry. Call before Start.
func (m *Manager) UseTelemetry(reg *telemetry.Registry) {
	tel := &managerMetrics{
		collects: reg.Counter("spatial_sensor_collects_total",
			"Sensor collection attempts.", "sensor"),
		collectErrors: reg.Counter("spatial_sensor_collect_errors_total",
			"Sensor collections that failed.", "sensor"),
		publishErrors: reg.Counter("spatial_sensor_publish_errors_total",
			"Readings that could not be published to the sink.", "sensor"),
		alerts: reg.Counter("spatial_sensor_alerts_total",
			"Readings that crossed an alert threshold.", "sensor"),
		duration: reg.Histogram("spatial_sensor_collect_duration_seconds",
			"Wall-clock duration of one sensor collection.", nil, "sensor"),
		lastValue: reg.Gauge("spatial_sensor_last_value",
			"Most recent measured value, per sensor.", "sensor"),
		bySensor: make(map[string]*sensorMetrics),
	}
	m.mu.Lock()
	m.tel = tel
	m.mu.Unlock()
}

// telemetry returns the metric handles, or nil when UseTelemetry was
// never called.
func (m *Manager) telemetry() *managerMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tel
}

// clk returns the manager's time source under the lock; UseClock may run
// concurrently with public entry points like CollectOnce.
func (m *Manager) clk() clock.Clock {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clock
}

// Register adds a sensor. It fails if the manager is running or the name
// is taken.
func (m *Manager) Register(s *Sensor) error {
	if err := s.validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return fmt.Errorf("sensor: cannot register %q while running", s.Name)
	}
	if _, dup := m.sensors[s.Name]; dup {
		return fmt.Errorf("sensor: duplicate name %q", s.Name)
	}
	if s.Interval <= 0 {
		s.Interval = time.Second
	}
	m.sensors[s.Name] = s
	return nil
}

// Names lists registered sensors.
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.sensors))
	for n := range m.sensors {
		out = append(out, n)
	}
	return out
}

// Start launches one sampling goroutine per sensor. Each sensor collects
// immediately and then on its interval until Stop.
func (m *Manager) Start(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return fmt.Errorf("sensor: manager already running")
	}
	if len(m.sensors) == 0 {
		return fmt.Errorf("sensor: no sensors registered")
	}
	ctx, m.cancel = context.WithCancel(ctx)
	m.running = true
	for _, s := range m.sensors {
		m.wg.Add(1)
		// Interval is read here, under m.mu, and passed by value so the
		// sampling goroutine never touches sensor fields unguarded.
		go m.run(ctx, s, s.Interval)
	}
	return nil
}

// Stop cancels sampling and waits for all goroutines to exit.
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	cancel := m.cancel
	m.mu.Unlock()
	cancel()
	m.wg.Wait()
	m.mu.Lock()
	m.running = false
	m.mu.Unlock()
}

func (m *Manager) run(ctx context.Context, s *Sensor, interval time.Duration) {
	defer m.wg.Done()
	ticker := m.clk().NewTicker(interval)
	defer ticker.Stop()
	m.collect(ctx, s)
	for {
		select {
		case <-ticker.C():
			m.collect(ctx, s)
		case <-ctx.Done():
			return
		}
	}
}

func (m *Manager) collect(ctx context.Context, s *Sensor) {
	r, err := m.CollectOnce(ctx, s.Name)
	if err != nil {
		if ctx.Err() != nil {
			return
		}
		log.Printf("sensor %q: collect: %v", s.Name, err)
		return
	}
	if m.sink != nil {
		if err := m.sink.Publish(ctx, r); err != nil && ctx.Err() == nil {
			// Publishing failures must not kill monitoring; the
			// reading stays available via Last.
			if tel := m.telemetry(); tel != nil {
				tel.forSensor(s.Name).publishErrors.Inc()
			}
			log.Printf("sensor %q: publish: %v", s.Name, err)
		}
	}
}

// CollectOnce runs one measurement of the named sensor synchronously and
// records it as the latest reading.
func (m *Manager) CollectOnce(ctx context.Context, name string) (Reading, error) {
	m.mu.Lock()
	s, ok := m.sensors[name]
	m.mu.Unlock()
	if !ok {
		return Reading{}, fmt.Errorf("sensor: unknown sensor %q", name)
	}
	var sm *sensorMetrics
	if tel := m.telemetry(); tel != nil {
		sm = tel.forSensor(s.Name)
	}
	clk := m.clk()
	start := clk.Now()
	value, detail, err := s.Collector.Collect(ctx)
	if sm != nil {
		sm.collects.Inc()
		sm.duration.Observe(clk.Since(start).Seconds())
	}
	if err != nil {
		if sm != nil {
			sm.collectErrors.Inc()
		}
		return Reading{}, fmt.Errorf("collect %q: %w", name, err)
	}
	if sm != nil {
		sm.lastValue.Set(value)
	}
	r := Reading{
		Sensor:   s.Name,
		Property: s.Property,
		Value:    value,
		Detail:   detail,
		Time:     clk.Now(),
	}
	if msg := s.check(value); msg != "" {
		r.Alert = true
		r.AlertMsg = msg
		if sm != nil {
			sm.alerts.Inc()
		}
	}
	m.mu.Lock()
	m.last[name] = r
	m.mu.Unlock()
	return r, nil
}

// Last returns the most recent reading of the named sensor.
func (m *Manager) Last(name string) (Reading, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.last[name]
	return r, ok
}

// Float64Ptr is a convenience for building thresholds.
func Float64Ptr(v float64) *float64 { return &v }
