// Package trace records structured execution events: phase transitions,
// task dispatches and completions, calibrations, and adaptations. The
// experiment harness reduces these logs into the tables and series the
// paper's methodology figure implies, and the CSV exporter makes runs
// inspectable offline.
//
// Logs come in two flavours. New returns an unbounded log — right for a
// batch run the harness reduces after the fact. NewBounded returns a
// fixed-capacity ring that overwrites its oldest events once full,
// counting what it dropped — right for a long-running job whose log would
// otherwise grow without bound. Every event carries an absolute sequence
// number (Total counts them; Dropped says how many fell off the ring), and
// Since reads incrementally from a cursor with the same clamp semantics as
// the service's results cursor, which is what the daemon's per-job
// timeline endpoint pages with.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind string

// Event kinds emitted by the GRASP layers.
const (
	KindPhaseStart  Kind = "phase_start" // Msg = phase name
	KindPhaseEnd    Kind = "phase_end"   // Msg = phase name
	KindDispatch    Kind = "dispatch"    // Task, Node
	KindComplete    Kind = "complete"    // Task, Node, Dur
	KindCalibrate   Kind = "calibrate"   // Node, Dur (sample time), Value (rank score)
	KindRecalibrate Kind = "recalibrate" // Msg = reason
	KindAdapt       Kind = "adapt"       // Msg = action taken
	KindThreshold   Kind = "threshold"   // Value = observed/threshold ratio
	KindForecast    Kind = "forecast"    // Node, Dur (forecast time), Value (forecast/reference ratio)
	KindNote        Kind = "note"        // Msg = freeform
)

// Event is one structured log record. Zero-valued fields are meaningless
// for kinds that do not use them.
type Event struct {
	At    time.Duration `json:"at"`
	Kind  Kind          `json:"kind"`
	Proc  string        `json:"proc,omitempty"`
	Node  string        `json:"node,omitempty"`
	Task  int           `json:"task,omitempty"`
	Dur   time.Duration `json:"dur,omitempty"`
	Value float64       `json:"value,omitempty"`
	Msg   string        `json:"msg,omitempty"`
}

// Log is an append-only event log. It is safe for concurrent use so the
// local (goroutine) runtime can share one. The zero value (and New) grows
// without bound; NewBounded caps retention with ring semantics.
type Log struct {
	mu     sync.Mutex
	events []Event
	// Ring state, used only when bounded (ring != 0): events is
	// preallocated to ring slots, start indexes the oldest retained event,
	// count is how many slots hold live events, and dropped counts events
	// overwritten after the ring filled. An append into a warm ring
	// allocates nothing, which is what lets the cluster dispatch hot path
	// carry a trace.
	ring    int
	start   int
	count   int
	dropped int64
}

// New returns an empty unbounded log.
func New() *Log { return &Log{} }

// NewBounded returns a log retaining at most cap events: once full, each
// append overwrites the oldest retained event and Dropped advances. A
// non-positive cap falls back to a small default rather than an unbounded
// log — callers reach for NewBounded exactly because the log must not
// grow forever.
func NewBounded(capacity int) *Log {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Log{events: make([]Event, capacity), ring: capacity}
}

// Append records an event.
func (l *Log) Append(e Event) {
	l.mu.Lock()
	if l.ring == 0 {
		l.events = append(l.events, e)
	} else if l.count < l.ring {
		l.events[(l.start+l.count)%l.ring] = e
		l.count++
	} else {
		l.events[l.start] = e
		l.start = (l.start + 1) % l.ring
		l.dropped++
	}
	l.mu.Unlock()
}

// Len returns the number of events currently retained.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lenLocked()
}

func (l *Log) lenLocked() int {
	if l.ring == 0 {
		return len(l.events)
	}
	return l.count
}

// Dropped returns how many events a bounded log has overwritten (always 0
// for an unbounded log).
func (l *Log) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Total returns how many events were ever appended: the retained events
// plus the dropped ones. It is the absolute sequence number the next
// appended event will take.
func (l *Log) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped + int64(l.lenLocked())
}

// Events returns a copy of the retained events in append order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.copyLocked(0)
}

// copyLocked copies the retained events from retained offset skip onward.
func (l *Log) copyLocked(skip int) []Event {
	n := l.lenLocked()
	if skip < 0 {
		skip = 0
	}
	if skip >= n {
		return nil
	}
	if l.ring == 0 {
		return append([]Event(nil), l.events[skip:]...)
	}
	out := make([]Event, 0, n-skip)
	for i := skip; i < n; i++ {
		out = append(out, l.events[(l.start+i)%l.ring])
	}
	return out
}

// Since returns the events with absolute sequence numbers in
// [after, Total) plus the next cursor value (pass it back to poll
// incrementally). Cursors predating the ring's retention are clamped
// forward to the oldest retained event — a slow poller loses overwritten
// events but never stalls — and cursors past the end (a cursor carried
// across a daemon restart, say) clamp back to the end, mirroring the
// results cursor's semantics.
func (l *Log) Since(after int64) (events []Event, next int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := l.dropped
	total := l.dropped + int64(l.lenLocked())
	if after < oldest {
		after = oldest
	}
	if after > total {
		after = total
	}
	events = l.copyLocked(int(after - oldest))
	return events, after + int64(len(events))
}

// Filter returns the events of the given kind, in order.
func (l *Log) Filter(k Kind) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// CountByKind returns how many events of each kind were recorded.
func (l *Log) CountByKind() map[Kind]int {
	counts := make(map[Kind]int)
	for _, e := range l.Events() {
		counts[e.Kind]++
	}
	return counts
}

// WriteCSV renders the log as CSV with a header row.
func (l *Log) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at_ns", "kind", "proc", "node", "task", "dur_ns", "value", "msg"}); err != nil {
		return err
	}
	for _, e := range l.Events() {
		rec := []string{
			strconv.FormatInt(int64(e.At), 10),
			string(e.Kind),
			e.Proc,
			e.Node,
			strconv.Itoa(e.Task),
			strconv.FormatInt(int64(e.Dur), 10),
			strconv.FormatFloat(e.Value, 'g', -1, 64),
			e.Msg,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Last returns the newest retained event, if any — the cheap way to learn
// a live log's time horizon without copying it.
func (l *Log) Last() (Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.lenLocked()
	if n == 0 {
		return Event{}, false
	}
	if l.ring == 0 {
		return l.events[n-1], true
	}
	return l.events[(l.start+n-1)%l.ring], true
}

// Bucket is one interval of a throughput timeline.
type Bucket struct {
	Start       time.Duration
	Completions int
}

// MaxBuckets bounds a Throughput series: past it, the bucket widens.
const MaxBuckets = 10_000

// Throughput reduces completion events into fixed-width buckets covering
// the retained events: from the bucket of the oldest one through the
// bucket holding horizon. A series that would need more than MaxBuckets
// widens its buckets to a multiple of width instead, so a log's age never
// sizes the result. A non-positive width yields a single bucket; an empty
// log yields nil.
func (l *Log) Throughput(width, horizon time.Duration) []Bucket {
	events := l.Events()
	if width <= 0 {
		width = horizon
	}
	if width <= 0 || len(events) == 0 {
		return nil
	}
	start := events[0].At / width * width
	horizon = max(horizon, start)
	if n := (horizon-start)/width + 1; n > MaxBuckets {
		width *= (n + MaxBuckets - 1) / MaxBuckets
	}
	buckets := make([]Bucket, (horizon-start)/width+1)
	for i := range buckets {
		buckets[i].Start = start + time.Duration(i)*width
	}
	for _, e := range events {
		if e.Kind != KindComplete {
			continue
		}
		if idx := int((e.At - start) / width); idx >= 0 && idx < len(buckets) {
			buckets[idx].Completions++
		}
	}
	return buckets
}

// PhaseSpan is the observed extent of one methodology phase.
type PhaseSpan struct {
	Name  string
	Start time.Duration
	End   time.Duration
}

// Phases pairs phase_start/phase_end events into spans, in start order.
// Unclosed phases get End = -1.
func (l *Log) Phases() []PhaseSpan {
	var spans []PhaseSpan
	open := make(map[string][]int) // name → indices of open spans
	for _, e := range l.Events() {
		switch e.Kind {
		case KindPhaseStart:
			open[e.Msg] = append(open[e.Msg], len(spans))
			spans = append(spans, PhaseSpan{Name: e.Msg, Start: e.At, End: -1})
		case KindPhaseEnd:
			if idxs := open[e.Msg]; len(idxs) > 0 {
				spans[idxs[0]].End = e.At
				open[e.Msg] = idxs[1:]
			}
		}
	}
	return spans
}

// String summarises the log for debugging.
func (l *Log) String() string {
	counts := l.CountByKind()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	s := fmt.Sprintf("trace.Log{%d events", l.Len())
	for _, k := range kinds {
		s += fmt.Sprintf(" %s=%d", k, counts[Kind(k)])
	}
	return s + "}"
}
