package scenario

import (
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/loadgen"
)

func TestVirtualTargetLoadCurve(t *testing.T) {
	v := NewVirtualTarget(1)

	// Light load: latency near base, no errors.
	for i := 0; i < 50; i++ {
		lat, err := v.Sample(10)
		if err != nil {
			t.Fatalf("light load error: %v", err)
		}
		if lat < 10*time.Millisecond || lat > 40*time.Millisecond {
			t.Fatalf("light-load latency out of band: %v", lat)
		}
	}

	// 3x overload of the 150 rps watermark: about 2/3 of requests shed
	// with 429, served latency stays clamped (flat-latency-rising-sheds,
	// not collapse).
	sheds, served := 0, 0
	var worst time.Duration
	for i := 0; i < 600; i++ {
		lat, err := v.Sample(450)
		if err != nil {
			var se *loadgen.StatusError
			if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
				t.Fatalf("overload error is not a shed: %v", err)
			}
			sheds++
			continue
		}
		served++
		if lat > worst {
			worst = lat
		}
	}
	if sheds < 300 || sheds > 500 {
		t.Fatalf("sheds at 3x overload: %d of 600", sheds)
	}
	if worst > 250*time.Millisecond {
		t.Fatalf("served latency collapsed under overload: %v", worst)
	}

	// The fault engine injected nothing: a shed is the stack's answer to
	// a request the engine passed, not an injected error.
	if st := v.Stats(); st != (ChaosStats{Passed: 650}) {
		t.Fatalf("stats: %+v (sheds=%d served=%d)", st, sheds, served)
	}
}

func TestVirtualTargetFaults(t *testing.T) {
	v := NewVirtualTarget(2)

	v.SetFault(&Fault{Kind: FaultErrorBurst, Rate: 1})
	var se *loadgen.StatusError
	if _, err := v.Sample(10); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("error burst: %v, want status 503", err)
	}

	v.SetFault(&Fault{Kind: FaultLatency, Latency: 200 * time.Millisecond, Rate: 1})
	lat, err := v.Sample(10)
	if err != nil || lat < 200*time.Millisecond {
		t.Fatalf("latency fault: lat=%v err=%v", lat, err)
	}

	v.SetFault(nil)
	if lat, err := v.Sample(10); err != nil || lat > 100*time.Millisecond {
		t.Fatalf("cleared fault: lat=%v err=%v", lat, err)
	}

	// Each request above was decided exactly once: one errored, one
	// delayed, one passed.
	if st := v.Stats(); st != (ChaosStats{Delayed: 1, Errored: 1, Passed: 1}) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestVirtualTargetDeterministic(t *testing.T) {
	run := func() []time.Duration {
		v := NewVirtualTarget(7)
		out := make([]time.Duration, 100)
		for i := range out {
			lat, _ := v.Sample(225)
			out[i] = lat
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}
