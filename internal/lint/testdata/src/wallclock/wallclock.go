// Package wallclock is spatial-lint golden-corpus input for the
// wall-clock analyzer: direct time.* calls must route through
// internal/clock in the scoped packages.
package wallclock

import (
	"time"

	"repro/internal/clock"
)

// stamp reads the wall clock directly.
func stamp() time.Time {
	return time.Now() // want "time.Now bypasses internal/clock"
}

// snooze uses a timer with no Clock equivalent; flagged all the same.
func snooze() {
	time.Sleep(time.Millisecond) // want "time.Sleep bypasses internal/clock"
}

// elapsed measures with Since.
func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since bypasses internal/clock"
}

// injected is the sanctioned construction: the clock interface carries
// the time source, so nothing is reported.
func injected(c clock.Clock) time.Time {
	return c.Now()
}

// valueReference is the injection idiom itself — referencing time.Now as
// a value to store in a field — and must not be flagged.
type ticker struct {
	now func() time.Time
}

func defaultTicker() *ticker {
	return &ticker{now: time.Now}
}

// waived shows the suppression syntax for the wall-clock check itself.
func waived() time.Time {
	return time.Now() //lint:ignore wall-clock boot stamp, printed once and never compared
}
