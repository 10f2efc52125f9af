// Package ctxleak is spatial-lint golden-corpus input for the ctx-leak
// dataflow analyzer: a context cancel function must be called on every
// path out of the function (or handed to something that will).
package ctxleak

import (
	"context"
	"errors"
	"time"
)

var errBusy = errors.New("busy")

// leakOnError forgets cancel on the early-return path.
func leakOnError(parent context.Context, busy bool) error {
	ctx, cancel := context.WithTimeout(parent, time.Second) // want "cancel is not called on every path"
	if busy {
		return errBusy
	}
	<-ctx.Done()
	cancel()
	return nil
}

// deferCancel is the canonical shape; nothing reported.
func deferCancel(parent context.Context) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	<-ctx.Done()
	return ctx.Err()
}

// discarded drops the cancel function entirely.
func discarded(parent context.Context) context.Context {
	ctx, _ := context.WithCancel(parent) // want "cancel function discarded"
	return ctx
}

// storedInField hands the obligation to the owning struct; Stop calls
// it. Clean.
type runner struct {
	ctx    context.Context
	cancel context.CancelFunc
}

func (r *runner) start(parent context.Context) {
	r.ctx, r.cancel = context.WithCancel(parent)
}

func (r *runner) stop() {
	if r.cancel != nil {
		r.cancel()
	}
}

// goroutineOwned hands cancel to a goroutine that outlives the call.
// Clean for ctx-leak, and the ctx.Done receive satisfies goroutine-leak.
func goroutineOwned(parent context.Context) {
	ctx, cancel := context.WithCancel(parent)
	go func() {
		<-ctx.Done()
		cancel()
	}()
}

// returned passes the obligation to the caller. Clean.
func returned(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(parent)
}

// keeper owns handed-over cancel functions for a later teardown sweep.
var keeper []context.CancelFunc

// keepCancel stores its argument, taking over the obligation.
func keepCancel(c context.CancelFunc) {
	keeper = append(keeper, c)
}

// handedToKeeper is clean: handing cancel to a helper discharges it.
func handedToKeeper(parent context.Context) {
	ctx, cancel := context.WithCancel(parent)
	keepCancel(cancel)
	<-ctx.Done()
}

// waived shows the suppression syntax.
func waived(parent context.Context, busy bool) error {
	ctx, cancel := context.WithCancel(parent) //lint:ignore ctx-leak canceled by the process signal handler
	if busy {
		return errBusy
	}
	<-ctx.Done()
	cancel()
	return nil
}
