// Package spanlog records the benchmark's own spans: intervals measured
// from outside the program under test, around each HTTP call to the
// daemons (the harness) and around each direct call into a layer's public
// functions (the ladder). Spans stay in memory and are written out once,
// when the run ends.
package spanlog

import (
	"sync"
	"time"
)

// Span is one interval around a call into a layer. N is how many tasks or
// results the call carried.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	N       int    `json:"n,omitempty"`
}

// Tracer keeps spans in memory. A nil *Tracer records nothing, which is
// the untraced run; every method is safe on nil and for concurrent use.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// New returns a tracer whose times count from epoch.
func New(epoch time.Time) *Tracer {
	return &Tracer{epoch: epoch, spans: make([]Span, 0, 1<<16)}
}

// Now is ns since the tracer's epoch (0 on nil).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Record appends one finished span and returns its id.
func (t *Tracer) Record(parent int, name string, startNS, endNS int64, n int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, StartNS: startNS, EndNS: endNS, N: n})
	t.mu.Unlock()
	return id
}

// Durations returns the durations, in ns, of the spans called name that
// started inside [fromNS, toNS).
func (t *Tracer) Durations(name string, fromNS, toNS int64) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.StartNS >= fromNS && s.StartNS < toNS {
			out = append(out, float64(s.EndNS-s.StartNS))
		}
	}
	return out
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}
