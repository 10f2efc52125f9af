package sensor

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestSamplingIntervalBoundsDetectionDelay is the DESIGN.md §5 ablation:
// a sensor can only notice a model compromise at its next sample, so the
// detection delay is bounded by (and grows with) the sampling interval.
// The manager runs on a fake clock, so the delay is asserted exactly on
// a virtual timeline instead of with real sleeps and scheduler slack.
func TestSamplingIntervalBoundsDetectionDelay(t *testing.T) {
	// A monitored value that drops below the alert threshold at a known
	// instant, simulating a model-swap poisoning event.
	detectAfterCompromise := func(interval time.Duration) time.Duration {
		fc := clock.NewFake(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
		var mu sync.Mutex
		compromised := false

		published := make(chan Reading, 16)
		sink := SinkFunc(func(_ context.Context, r Reading) error {
			published <- r
			return nil
		})
		m := NewManager(sink)
		m.UseClock(fc)
		if err := m.Register(&Sensor{
			Name:     "acc",
			Property: PropPerformance,
			Interval: interval,
			Collector: CollectorFunc(func(context.Context) (float64, map[string]float64, error) {
				mu.Lock()
				defer mu.Unlock()
				if compromised {
					return 0.4, nil, nil
				}
				return 0.95, nil, nil
			}),
			Min: Float64Ptr(0.9),
		}); err != nil {
			t.Fatal(err)
		}
		if err := m.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer m.Stop()

		// The run loop collects once at startup; that reading must be
		// healthy. Receiving it also proves the sampling ticker is armed.
		if r := <-published; r.Alert {
			t.Fatalf("interval %v: healthy reading alerted", interval)
		}

		// Compromise the model at the current virtual instant, then step
		// the clock one sampling period at a time until the alert fires.
		mu.Lock()
		compromised = true
		mu.Unlock()
		at := fc.Now()
		for i := 0; i < 5; i++ {
			fc.Advance(interval)
			if r := <-published; r.Alert {
				return r.Time.Sub(at)
			}
		}
		t.Fatalf("interval %v: compromise never detected", interval)
		return 0
	}

	fast := detectAfterCompromise(30 * time.Millisecond)
	slow := detectAfterCompromise(400 * time.Millisecond)

	// On the fake timeline detection lands exactly on the first sample
	// after the compromise: one full sampling period later.
	if fast != 30*time.Millisecond {
		t.Fatalf("30ms sensor detected after %v, want exactly one interval", fast)
	}
	if slow != 400*time.Millisecond {
		t.Fatalf("400ms sensor detected after %v, want exactly one interval", slow)
	}
	if slow <= fast {
		t.Fatalf("slower sampling detected faster: %v vs %v", slow, fast)
	}
}
