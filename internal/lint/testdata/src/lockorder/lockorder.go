// Package lockorder is spatial-lint golden-corpus input for the
// lock-order interprocedural analyzer: two functions that disagree on
// the acquisition order of the same pair of locks can deadlock under
// concurrency, even though each function is perfectly lock-balanced on
// its own.
package lockorder

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

var (
	a A
	b B
)

// TakeAB acquires A.mu before B.mu.
func TakeAB() {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "lockorder.B.mu acquired while lockorder.A.mu is held"
	defer b.mu.Unlock()
}

// TakeBA acquires the same pair in the reverse order, closing the cycle.
func TakeBA() {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock() // want "lockorder.A.mu acquired while lockorder.B.mu is held"
	defer a.mu.Unlock()
}

type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }

var (
	c C
	d D
)

// pokeD briefly takes D.mu; its summary records the acquisition.
func pokeD() {
	d.mu.Lock()
	d.mu.Unlock()
}

// CthenD reaches D.mu only through the helper — the edge comes from
// pokeD's summary, not from any lock statement in this function.
func CthenD() {
	c.mu.Lock()
	defer c.mu.Unlock()
	pokeD() // want "call to lockorder.pokeD may acquire lockorder.D.mu while lockorder.C.mu is held"
}

// DthenC closes the cycle directly.
func DthenC() {
	d.mu.Lock()
	defer d.mu.Unlock()
	c.mu.Lock() // want "lockorder.C.mu acquired while lockorder.D.mu is held"
	c.mu.Unlock()
}

// Account shows the instance-insensitive self-edge: locking two values
// of the same type with no global order deadlocks when Transfer(x, y)
// and Transfer(y, x) run concurrently.
type Account struct {
	mu      sync.Mutex
	balance int
}

// Transfer locks both accounts in argument order.
func Transfer(from, to *Account, amount int) {
	from.mu.Lock()
	defer from.mu.Unlock()
	to.mu.Lock() // want "lockorder.Account.mu acquired while an instance of it is already held"
	defer to.mu.Unlock()
	from.balance -= amount
	to.balance += amount
}

type J struct{ mu sync.Mutex }
type K struct{ mu sync.Mutex }

var (
	j J
	k K
)

// JthenDeepK reaches K.mu nine calls deep. The witness chain is capped;
// the acquisition is not.
func JthenDeepK() {
	j.mu.Lock()
	defer j.mu.Unlock()
	deep1() // want "call to lockorder.deep1 -> .* -> \.\.\. may acquire lockorder.K.mu while lockorder.J.mu is held"
}

func deep1() { deep2() }
func deep2() { deep3() }
func deep3() { deep4() }
func deep4() { deep5() }
func deep5() { deep6() }
func deep6() { deep7() }
func deep7() { deep8() }
func deep8() { deep9() }

func deep9() {
	k.mu.Lock()
	k.mu.Unlock()
}

// KthenJ closes the deep cycle directly.
func KthenJ() {
	k.mu.Lock()
	defer k.mu.Unlock()
	j.mu.Lock() // want "lockorder.J.mu acquired while lockorder.K.mu is held"
	j.mu.Unlock()
}

type E struct{ mu sync.Mutex }
type F struct{ mu sync.Mutex }

var (
	e E
	f F
)

// EthenF holds one side of a cycle that has been reviewed and waived.
func EthenF() {
	e.mu.Lock()
	//lint:ignore lock-order boot-time only; FthenE cannot run concurrently with this
	f.mu.Lock()
	f.mu.Unlock()
	e.mu.Unlock()
}

// FthenE is the other half of the waived cycle and still reports.
func FthenE() {
	f.mu.Lock()
	e.mu.Lock() // want "lockorder.E.mu acquired while lockorder.F.mu is held"
	e.mu.Unlock()
	f.mu.Unlock()
}

type Stats struct{ mu sync.RWMutex }

// ReadBoth takes the same type's read lock twice. Shared acquisitions
// cannot deadlock against each other, so no self-edge is reported.
func ReadBoth(x, y *Stats) {
	x.mu.RLock()
	y.mu.RLock()
	y.mu.RUnlock()
	x.mu.RUnlock()
}

type P struct{ mu sync.Mutex }
type Q struct{ mu sync.Mutex }

var (
	p P
	q Q
)

// PthenQ and AlsoPthenQ agree on the order; an acyclic edge is clean.
func PthenQ() {
	p.mu.Lock()
	q.mu.Lock()
	q.mu.Unlock()
	p.mu.Unlock()
}

// AlsoPthenQ repeats the same order.
func AlsoPthenQ() {
	p.mu.Lock()
	defer p.mu.Unlock()
	q.mu.Lock()
	defer q.mu.Unlock()
}
