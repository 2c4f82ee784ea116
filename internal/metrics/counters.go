// Package metrics is the operational Registry the daemons export:
// counters, gauges, and fixed-bucket latency histograms with a
// zero-allocation Observe path, rendered deterministically in Prometheus
// text exposition format (RenderProm) — the one exposition.
package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing operational counter, safe for
// concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value that also tracks its high-water
// mark, safe for concurrent use.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores v and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Add shifts the gauge by delta and updates the high-water mark.
func (g *Gauge) Add(delta int64) {
	v := g.v.Add(delta)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// LabelSafe folds an arbitrary identifier (a cluster node id, a job name)
// into the [a-zA-Z0-9_] alphabet metric names are built from, so dynamic
// per-entity metrics stay parseable by the plain-text exposition format.
func LabelSafe(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// Registry is a named collection of counters, gauges, and histograms. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Delete removes the named counter and/or gauge. Use for per-entity
// series (per-node gauges) whose entity is gone — a registry serving a
// long-lived daemon must not accumulate series for every id ever seen.
func (r *Registry) Delete(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.counters, name)
	delete(r.gauges, name)
	delete(r.histograms, name)
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (nil/empty bounds: DefDurationBuckets).
// A later call under the same name returns the existing histogram
// regardless of bounds — handles are meant to be resolved once and kept,
// exactly like the coordinator's pre-resolved counters.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Snapshot returns every metric's current value by name. Gauges add a
// "_max" entry for their high-water mark.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+2*len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
		out[name+"_max"] = g.Max()
	}
	return out
}
