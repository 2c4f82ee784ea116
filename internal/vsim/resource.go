package vsim

// Resource is a counted resource with FIFO admission, in the style of
// simulation libraries' "server" primitive. The grid model uses it for link
// contention: a link is a capacity-1 resource, so concurrent transfers
// queue deterministically.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	waitq    []*Proc
}

// NewResource creates a resource with the given capacity (minimum 1).
func NewResource(e *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{env: e, name: name, capacity: capacity}
}

// Acquire obtains one unit, blocking p FIFO behind earlier waiters when the
// resource is saturated.
func (r *Resource) Acquire(p *Proc) {
	p.checkCurrent("Resource.Acquire")
	if r.inUse < r.capacity && len(r.waitq) == 0 {
		r.inUse++
		return
	}
	r.waitq = append(r.waitq, p)
	p.state = StateBlocked
	p.blockReason = "acquire " + r.name
	p.park()
	// The releaser transferred the unit to us; inUse already accounts for it.
}

// Release returns one unit. If waiters are queued, the unit is handed to the
// oldest one. Releasing an idle resource panics: it indicates an
// acquire/release imbalance in the caller.
func (r *Resource) Release(p *Proc) {
	p.checkCurrent("Resource.Release")
	if r.inUse == 0 {
		panic("vsim: release of idle resource " + r.name)
	}
	if len(r.waitq) > 0 {
		next := r.waitq[0]
		r.waitq = r.waitq[0:copy(r.waitq, r.waitq[1:])]
		// Unit passes directly to next; inUse stays constant.
		r.env.enqueue(next)
		return
	}
	r.inUse--
}
