package sensor

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

type memSink struct {
	mu       sync.Mutex
	readings []Reading
}

func (m *memSink) Publish(_ context.Context, r Reading) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.readings = append(m.readings, r)
	return nil
}

func (m *memSink) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.readings)
}

func constCollector(v float64) Collector {
	return CollectorFunc(func(context.Context) (float64, map[string]float64, error) {
		return v, map[string]float64{"detail": v * 2}, nil
	})
}

func TestRegisterValidation(t *testing.T) {
	m := NewManager(nil)
	if err := m.Register(&Sensor{Property: PropPerformance, Collector: constCollector(1)}); err == nil {
		t.Fatal("expected missing-name error")
	}
	if err := m.Register(&Sensor{Name: "a", Collector: constCollector(1)}); err == nil {
		t.Fatal("expected missing-property error")
	}
	if err := m.Register(&Sensor{Name: "a", Property: PropPerformance}); err == nil {
		t.Fatal("expected missing-collector error")
	}
	ok := &Sensor{Name: "a", Property: PropPerformance, Collector: constCollector(1)}
	if err := m.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(&Sensor{Name: "a", Property: PropPerformance, Collector: constCollector(1)}); err == nil {
		t.Fatal("expected duplicate error")
	}
}

func TestCollectOnceRecordsReading(t *testing.T) {
	m := NewManager(nil)
	if err := m.Register(&Sensor{Name: "acc", Property: PropPerformance, Collector: constCollector(0.97)}); err != nil {
		t.Fatal(err)
	}
	r, err := m.CollectOnce(context.Background(), "acc")
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0.97 || r.Property != PropPerformance || r.Alert {
		t.Fatalf("reading %+v", r)
	}
	if r.Detail["detail"] != 1.94 {
		t.Fatalf("detail %v", r.Detail)
	}
	last, ok := m.Last("acc")
	if !ok || last.Value != 0.97 {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
	if _, err := m.CollectOnce(context.Background(), "ghost"); err == nil {
		t.Fatal("expected unknown-sensor error")
	}
}

func TestThresholdAlerts(t *testing.T) {
	m := NewManager(nil)
	if err := m.Register(&Sensor{
		Name:      "acc",
		Property:  PropPerformance,
		Collector: constCollector(0.42),
		Min:       Float64Ptr(0.9),
	}); err != nil {
		t.Fatal(err)
	}
	r, err := m.CollectOnce(context.Background(), "acc")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Alert || r.AlertMsg == "" {
		t.Fatalf("expected alert, got %+v", r)
	}

	if err := m.Register(&Sensor{
		Name:      "imp",
		Property:  PropResilience,
		Collector: constCollector(0.8),
		Min:       Float64Ptr(0.5),
	}); err != nil {
		t.Fatal(err)
	}
	r, err = m.CollectOnce(context.Background(), "imp")
	if err != nil {
		t.Fatal(err)
	}
	if r.Alert || r.AlertMsg != "" {
		t.Fatalf("in-range reading alerted: %+v", r)
	}
}

func TestManagerPeriodicCollection(t *testing.T) {
	sink := &memSink{}
	m := NewManager(sink)
	if err := m.Register(&Sensor{
		Name:      "fast",
		Property:  PropPerformance,
		Interval:  20 * time.Millisecond,
		Collector: constCollector(1),
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sink.count() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d readings published", sink.count())
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Stop()
	n := sink.count()
	time.Sleep(50 * time.Millisecond)
	if sink.count() != n {
		t.Fatal("readings published after Stop")
	}
	// Restartable after Stop.
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.Stop()
}

func TestManagerStartErrors(t *testing.T) {
	m := NewManager(nil)
	if err := m.Start(context.Background()); err == nil {
		t.Fatal("expected no-sensors error")
	}
	if err := m.Register(&Sensor{Name: "a", Property: PropPerformance, Collector: constCollector(1), Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if err := m.Start(context.Background()); err == nil {
		t.Fatal("expected already-running error")
	}
	if err := m.Register(&Sensor{Name: "b", Property: PropPerformance, Collector: constCollector(1)}); err == nil {
		t.Fatal("expected cannot-register-while-running error")
	}
}

func TestCollectorErrorsAreCounted(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(nil)
	reg := telemetry.NewRegistry()
	m.UseTelemetry(reg)
	failed := reg.Counter("spatial_sensor_collect_errors_total", "", "sensor").With("flaky")
	if err := m.Register(&Sensor{
		Name:     "flaky",
		Property: PropResilience,
		Interval: 10 * time.Millisecond,
		Collector: CollectorFunc(func(context.Context) (float64, map[string]float64, error) {
			calls.Add(1)
			return 0, nil, errors.New("boom")
		}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for failed.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("errors not counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Stop()
	if _, ok := m.Last("flaky"); ok {
		t.Fatal("failed collection should not record a reading")
	}
}

func TestThresholdCheck(t *testing.T) {
	none := Sensor{}
	if msg := none.check(123); msg != "" {
		t.Fatalf("unbounded threshold alerted: %s", msg)
	}
	floor := Sensor{Min: Float64Ptr(0)}
	if msg := floor.check(0.5); msg != "" {
		t.Fatalf("in-range value alerted: %s", msg)
	}
	if msg := floor.check(0); msg != "" {
		t.Fatalf("value at the minimum alerted: %s", msg)
	}
	if msg := floor.check(-1); msg == "" {
		t.Fatal("below-min not alerted")
	}
}
