package vsim

import "fmt"

// Chan is a typed channel between simulation processes with Go-like
// semantics: optional buffering, blocking send/receive, and close. All
// operations must be invoked by the currently running process of the
// channel's environment.
//
// Ordering is deterministic: waiting senders and receivers are served FIFO.
type Chan[T any] struct {
	env    *Env
	name   string
	buf    []T
	cap    int
	sendq  []*sendWaiter[T]
	recvq  []*recvWaiter[T]
	closed bool
}

type sendWaiter[T any] struct {
	proc *Proc
	val  T
	// closedWhileWaiting tells a parked sender the channel was closed under
	// it, which is a programming error (as in Go).
	closedWhileWaiting bool
}

type recvWaiter[T any] struct {
	proc *Proc
	val  T
	ok   bool
	// filled marks that a sender handed a value over directly.
	filled bool
}

// NewChan creates a channel with the given buffer capacity (0 = unbuffered).
func NewChan[T any](e *Env, name string, capacity int) *Chan[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Chan[T]{env: e, name: name, cap: capacity}
}

// Cap returns the buffer capacity.
func (c *Chan[T]) Cap() int { return c.cap }

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Send delivers v, blocking p until a receiver or buffer slot is available.
// Sending on a closed channel panics, as in Go.
func (c *Chan[T]) Send(p *Proc, v T) {
	p.checkCurrent("Chan.Send")
	if c.closed {
		panic(fmt.Sprintf("vsim: send on closed channel %q", c.name))
	}
	// Direct handoff to the oldest waiting receiver.
	if len(c.recvq) > 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[0:copy(c.recvq, c.recvq[1:])]
		w.val, w.ok, w.filled = v, true, true
		c.env.enqueue(w.proc)
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	// Park until a receiver drains us.
	w := &sendWaiter[T]{proc: p, val: v}
	c.sendq = append(c.sendq, w)
	p.state = StateBlocked
	p.blockReason = "send " + c.name
	p.park()
	if w.closedWhileWaiting {
		panic(fmt.Sprintf("vsim: send on closed channel %q", c.name))
	}
}

// TrySend delivers v without blocking. It reports whether the value was
// accepted (handed to a receiver or buffered). TrySend on a closed channel
// panics.
func (c *Chan[T]) TrySend(p *Proc, v T) bool {
	p.checkCurrent("Chan.TrySend")
	if c.closed {
		panic(fmt.Sprintf("vsim: send on closed channel %q", c.name))
	}
	if len(c.recvq) > 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[0:copy(c.recvq, c.recvq[1:])]
		w.val, w.ok, w.filled = v, true, true
		c.env.enqueue(w.proc)
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Recv returns the next value. ok is false if and only if the channel is
// closed and drained. Recv blocks while the channel is open and empty.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	p.checkCurrent("Chan.Recv")
	if v, ok, done := c.tryRecvLocked(); done {
		return v, ok
	}
	// Park until a sender or Close fills us in.
	w := &recvWaiter[T]{proc: p}
	c.recvq = append(c.recvq, w)
	p.state = StateBlocked
	p.blockReason = "recv " + c.name
	p.park()
	return w.val, w.ok
}

// TryRecv returns the next value without blocking. done reports whether the
// operation completed (value received or channel closed-and-drained); when
// done is false the channel was open and empty.
func (c *Chan[T]) TryRecv(p *Proc) (v T, ok, done bool) {
	p.checkCurrent("Chan.TryRecv")
	return c.tryRecvLocked()
}

// tryRecvLocked implements the non-blocking receive paths.
func (c *Chan[T]) tryRecvLocked() (v T, ok, done bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[0:copy(c.buf, c.buf[1:])]
		// A parked sender can now move its value into the freed slot.
		if len(c.sendq) > 0 {
			s := c.sendq[0]
			c.sendq = c.sendq[0:copy(c.sendq, c.sendq[1:])]
			c.buf = append(c.buf, s.val)
			c.env.enqueue(s.proc)
		}
		return v, true, true
	}
	if len(c.sendq) > 0 {
		// Unbuffered (or cap drained to zero): take directly from the
		// oldest parked sender.
		s := c.sendq[0]
		c.sendq = c.sendq[0:copy(c.sendq, c.sendq[1:])]
		c.env.enqueue(s.proc)
		return s.val, true, true
	}
	if c.closed {
		var zero T
		return zero, false, true
	}
	return v, false, false
}

// Close marks the channel closed. Parked receivers wake with ok=false;
// parked senders wake and panic (send on closed channel), matching Go.
// Closing twice panics.
func (c *Chan[T]) Close(p *Proc) {
	p.checkCurrent("Chan.Close")
	if c.closed {
		panic(fmt.Sprintf("vsim: close of closed channel %q", c.name))
	}
	c.closed = true
	for _, w := range c.recvq {
		w.ok = false
		c.env.enqueue(w.proc)
	}
	c.recvq = nil
	for _, s := range c.sendq {
		s.closedWhileWaiting = true
		c.env.enqueue(s.proc)
	}
	c.sendq = nil
}
