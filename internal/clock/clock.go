// Package clock abstracts the time source so components that schedule
// work (sensor sampling loops, load-generator ramp-ups) can be driven
// deterministically in tests. The spatial-lint wall-clock analyzer flags
// raw time.Now() in every other internal package; this package is the
// sanctioned injection point: production code takes a Clock and defaults
// to Real(), tests install a Fake and advance it explicitly, so timing
// assertions stop depending on scheduler load.
package clock

import (
	"sync"
	"time"
)

// Clock is the time surface the repo's scheduling code consumes.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since is shorthand for Now().Sub(t).
	Since(t time.Time) time.Duration
	// After returns a channel that delivers the clock's time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTicker returns a ticker firing every d.
	NewTicker(d time.Duration) Ticker
}

// Ticker abstracts time.Ticker so fakes can drive sampling loops.
type Ticker interface {
	// C returns the delivery channel.
	C() <-chan time.Time
	// Stop releases the ticker's resources.
	Stop()
}

// realClock delegates to the time package.
type realClock struct{}

// Real returns the wall-clock Clock.
func Real() Clock { return realClock{} }

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) NewTicker(d time.Duration) Ticker       { return realTicker{time.NewTicker(d)} }

type realTicker struct{ t *time.Ticker }

func (t realTicker) C() <-chan time.Time { return t.t.C }
func (t realTicker) Stop()               { t.t.Stop() }

// Fake is a manually advanced Clock. Time only moves when Advance is
// called; timers and tickers whose deadlines are reached fire in
// deadline order with the fake timestamp. All methods are safe for
// concurrent use.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
	// cond broadcasts waiter-set changes for BlockUntil.
	cond *sync.Cond
}

// waiter is one pending timer (period 0) or ticker.
type waiter struct {
	deadline time.Time
	period   time.Duration
	ch       chan time.Time
	stopped  bool
}

// NewFake builds a fake clock starting at start (a fixed epoch keeps
// test output reproducible).
func NewFake(start time.Time) *Fake {
	f := &Fake{now: start}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Now returns the fake's current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since is Now().Sub(t) on the fake timeline.
func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

// After registers a one-shot timer. A non-positive d fires immediately.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- f.now
		return ch
	}
	f.waiters = append(f.waiters, &waiter{deadline: f.now.Add(d), ch: ch})
	f.cond.Broadcast()
	return ch
}

// NewTicker registers a repeating timer.
func (f *Fake) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &waiter{deadline: f.now.Add(d), period: d, ch: make(chan time.Time, 1)}
	f.waiters = append(f.waiters, w)
	f.cond.Broadcast()
	return &fakeTicker{f: f, w: w}
}

type fakeTicker struct {
	f *Fake
	w *waiter
}

func (t *fakeTicker) C() <-chan time.Time { return t.w.ch }

func (t *fakeTicker) Stop() {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	t.w.stopped = true
}

// Advance moves the fake time forward by d, firing every timer and
// ticker whose deadline is reached, in deadline order. Ticker deliveries
// coalesce like time.Ticker's (capacity-1 channel, slow receivers skip
// ticks).
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	target := f.now.Add(d)
	for {
		// Find the earliest due waiter still at or before target.
		idx := -1
		for i, w := range f.waiters {
			if w.stopped || w.deadline.After(target) {
				continue
			}
			if idx == -1 || w.deadline.Before(f.waiters[idx].deadline) {
				idx = i
			}
		}
		if idx == -1 {
			break
		}
		w := f.waiters[idx]
		f.now = w.deadline
		select {
		case w.ch <- w.deadline:
		default: // receiver is behind; drop the tick like time.Ticker
		}
		if w.period > 0 {
			w.deadline = w.deadline.Add(w.period)
		} else {
			f.waiters = append(f.waiters[:idx], f.waiters[idx+1:]...)
		}
	}
	f.now = target
	f.cond.Broadcast()
}

// BlockUntil returns once at least n timers/tickers are pending, letting
// tests synchronize with goroutines that are about to wait on the clock.
func (f *Fake) BlockUntil(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.pendingLocked() < n {
		f.cond.Wait()
	}
}

// pendingLocked counts live waiters.
func (f *Fake) pendingLocked() int {
	c := 0
	for _, w := range f.waiters {
		if !w.stopped {
			c++
		}
	}
	return c
}

// Pending reports the number of live timers/tickers (for test
// assertions).
func (f *Fake) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pendingLocked()
}

var _ Clock = (*Fake)(nil)
