package main

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
)

// Standard task sizes. cluster.Spin runs at about 0.2 ns per iteration
// under go1.24 (its floating-point body is dead code), so stdSpin is about
// 20 µs of CPU; the ladder records the real figure as
// kernel.spin_ns_per_iter. Work is sized in iterations, not in time.
const (
	stdSpin    = 100_000
	degradeUS  = 2_000
	jitterLow  = 0.75
	jitterSpan = 0.5
)

// taskKind selects what a generated task does.
type taskKind int

const (
	kindSpin  taskKind = iota // {"id":i,"cost":1,"spin":n}
	kindSleep                 // {"id":i,"cost":1,"sleep_us":n}
)

// stream generates one job's task stream from a seed: ids run from 0 in
// generation order, each task's work is the kind's standard size with
// seeded ±25 % jitter. It also remembers, per batch, when the batch was
// sent (or was due) and when its POST returned, which is what the poller
// measures latency against. Safe for concurrent use by pushers and the
// poller.
type stream struct {
	kind  taskKind
	batch int

	mu     sync.Mutex
	rng    *rand.Rand
	nextID int
	sentNS []int64 // per batch: ns after epoch the POST was issued (open loop: was due)
	ackNS  []int64 // per batch: ns after epoch the POST returned (0 while in flight)
}

func newStream(seed int64, kind taskKind, batch int) *stream {
	return &stream{kind: kind, batch: batch, rng: rand.New(rand.NewSource(seed))}
}

// appendTask appends task id's JSON object to buf, drawing its jitter from
// rng.
func appendTask(buf []byte, rng *rand.Rand, kind taskKind, id int) []byte {
	jitter := jitterLow + jitterSpan*rng.Float64()
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendInt(buf, int64(id), 10)
	if kind == kindSleep {
		buf = append(buf, `,"cost":1,"sleep_us":`...)
		buf = strconv.AppendInt(buf, int64(math.Round(degradeUS*jitter)), 10)
	} else {
		buf = append(buf, `,"cost":1,"spin":`...)
		buf = strconv.AppendInt(buf, int64(math.Round(stdSpin*jitter)), 10)
	}
	return append(buf, '}')
}

// next generates the next batch into buf (reused across calls) and stamps
// its send time. limit caps the stream's total length (0 = unbounded);
// n is 0 once the limit is reached.
func (s *stream) next(buf []byte, sentNS int64, limit int) (body []byte, batchIdx, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n = s.batch
	if limit > 0 && s.nextID+n > limit {
		n = limit - s.nextID
	}
	if n <= 0 {
		return buf[:0], 0, 0
	}
	buf = append(buf[:0], '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendTask(buf, s.rng, s.kind, s.nextID+i)
	}
	buf = append(buf, ']')
	s.nextID += n
	s.sentNS = append(s.sentNS, sentNS)
	s.ackNS = append(s.ackNS, 0)
	return buf, len(s.sentNS) - 1, n
}

// acked stamps the instant batch batchIdx's POST returned.
func (s *stream) acked(batchIdx int, ns int64) {
	s.mu.Lock()
	s.ackNS[batchIdx] = ns
	s.mu.Unlock()
}

// times returns when task id's batch was sent and acknowledged.
func (s *stream) times(id int) (sentNS, ackNS int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := id / s.batch
	if id < 0 || b >= len(s.sentNS) {
		return 0, 0, false
	}
	return s.sentNS[b], s.ackNS[b], true
}

// pushed is the number of tasks generated so far.
func (s *stream) pushed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// schedule returns the open-loop send times, in ns after the stream's
// start: seeded exponential gaps at rate per second, covering horizonNS.
// The generator never consults the system under test, so a slow daemon
// receives the same offered load as a fast one.
func schedule(seed int64, rate float64, horizonNS int64) []int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x09e3779b97f4a7c1))
	var due []int64
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate * 1e9
		if int64(t) >= horizonNS {
			return due
		}
		due = append(due, int64(t))
	}
}
