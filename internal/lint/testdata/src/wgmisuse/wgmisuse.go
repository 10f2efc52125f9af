// Package wgmisuse is spatial-lint golden-corpus input for the
// wg-misuse check: a WaitGroup Add inside the goroutine the spawner is
// already waiting on.
package wgmisuse

import "sync"

func work() int { return 1 }

// AddAfterWait re-arms the group after a Wait that has returned; legal
// sequential reuse, not flagged.
func AddAfterWait(trigger bool) {
	var wg sync.WaitGroup
	if trigger {
		wg.Wait()
	}
	wg.Add(1)
	wg.Done()
}

// AddInGoroutine counts the work inside the goroutine it spawns while
// the caller is already waiting; Wait can pass before Add runs.
func AddInGoroutine() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want "runs inside a goroutine while .* waits on it"
		defer wg.Done()
		_ = work()
	}()
	wg.Wait()
}

// Balanced Adds once per goroutine before spawning; not flagged.
func Balanced(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = work()
		}()
	}
	wg.Wait()
}

// WavesInLoop alternates Add and Wait inside one loop; legal wave-style
// reuse, not flagged.
func WavesInLoop(rounds int) {
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = work()
		}()
		wg.Wait()
	}
}

// Rearm re-arms a group sequentially after the first wave's Wait
// returned — a two-phase barrier; not flagged.
func Rearm() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = work()
	}()
	wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = work()
	}()
	wg.Wait()
}
