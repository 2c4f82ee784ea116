package rt

import (
	"sync"
	"time"
)

// Local is the real runtime: processes are goroutines, time is wall-clock,
// and channels are native Go channels. It is what a library user gets when
// running skeletons on an actual machine (the examples use it).
type Local struct {
	start time.Time
	wg    sync.WaitGroup
}

// NewLocal returns a running local runtime; Now is measured from this call.
func NewLocal() *Local { return &Local{start: time.Now()} }

// localHandle adapts a goroutine's completion to Handle.
type localHandle struct{ done chan struct{} }

func (localHandle) handle() {}

// localCtx is the Ctx of a goroutine-backed process.
type localCtx struct {
	l    *Local
	name string
}

// Name implements Ctx.
func (c localCtx) Name() string { return c.name }

// Now implements Ctx.
func (c localCtx) Now() time.Duration { return time.Since(c.l.start) }

// Sleep implements Ctx.
func (c localCtx) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Go implements Ctx.
func (c localCtx) Go(name string, fn func(Ctx)) Handle { return c.l.Go(name, fn) }

// Join implements Ctx.
func (c localCtx) Join(h Handle) {
	lh, okCast := h.(localHandle)
	if !okCast {
		panic("rt: joining a non-local handle on the local runtime")
	}
	<-lh.done
}

// Go implements Runtime.
func (l *Local) Go(name string, fn func(Ctx)) Handle {
	h := localHandle{done: make(chan struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer close(h.done)
		fn(localCtx{l: l, name: name})
	}()
	return h
}

// NewChan implements Runtime.
func (l *Local) NewChan(_ string, capacity int) Chan {
	if capacity < 0 {
		capacity = 0
	}
	return &localChan{ch: make(chan any, capacity), capacity: capacity}
}

// Run implements Runtime: it blocks until every spawned goroutine finishes.
func (l *Local) Run() error {
	l.wg.Wait()
	return nil
}

// Now implements Runtime.
func (l *Local) Now() time.Duration { return time.Since(l.start) }

// localChan adapts a native channel to Chan.
type localChan struct {
	ch       chan any
	capacity int
}

// Send implements Chan.
func (lc *localChan) Send(_ Ctx, v any) { lc.ch <- v }

// SendOrDone delivers v on a channel of the Local runtime, blocking until
// it is accepted or done is closed, and reports whether v was sent — the
// send for a producer whose consumer may stop draining. Wall-clock
// producers only: it panics on a simulated channel, whose blocking is the
// scheduler's business.
func SendOrDone(ch Chan, v any, done <-chan struct{}) bool {
	select {
	case ch.(*localChan).ch <- v:
		return true
	case <-done:
		return false
	}
}

// TrySend implements Chan.
func (lc *localChan) TrySend(_ Ctx, v any) bool {
	select {
	case lc.ch <- v:
		return true
	default:
		return false
	}
}

// Recv implements Chan.
func (lc *localChan) Recv(_ Ctx) (any, bool) {
	v, ok := <-lc.ch
	return v, ok
}

// TryRecv implements Chan.
func (lc *localChan) TryRecv(_ Ctx) (any, bool, bool) {
	select {
	case v, ok := <-lc.ch:
		return v, ok, true
	default:
		return nil, false, false
	}
}

// Close implements Chan.
func (lc *localChan) Close(_ Ctx) { close(lc.ch) }

// Len implements Chan.
func (lc *localChan) Len() int { return len(lc.ch) }

// Cap implements Chan.
func (lc *localChan) Cap() int { return lc.capacity }
