package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func sampleLog() *Log {
	l := New()
	l.Append(Event{At: 0, Kind: KindPhaseStart, Msg: "calibration"})
	l.Append(Event{At: 1 * time.Second, Kind: KindCalibrate, Node: "n0", Dur: time.Second, Value: 1})
	l.Append(Event{At: 2 * time.Second, Kind: KindPhaseEnd, Msg: "calibration"})
	l.Append(Event{At: 2 * time.Second, Kind: KindPhaseStart, Msg: "execution"})
	l.Append(Event{At: 3 * time.Second, Kind: KindDispatch, Node: "n0", Task: 1})
	l.Append(Event{At: 4 * time.Second, Kind: KindComplete, Node: "n0", Task: 1, Dur: time.Second})
	l.Append(Event{At: 5 * time.Second, Kind: KindComplete, Node: "n1", Task: 2, Dur: time.Second})
	return l
}

func TestAppendAndLen(t *testing.T) {
	l := sampleLog()
	if l.Len() != 7 {
		t.Errorf("Len = %d", l.Len())
	}
	if len(l.Events()) != 7 {
		t.Errorf("Events len = %d", len(l.Events()))
	}
}

func TestEventsIsCopy(t *testing.T) {
	l := sampleLog()
	evs := l.Events()
	evs[0].Msg = "mutated"
	if l.Events()[0].Msg == "mutated" {
		t.Error("Events returned a view, not a copy")
	}
}

func TestFilter(t *testing.T) {
	l := sampleLog()
	if got := len(l.Filter(KindComplete)); got != 2 {
		t.Errorf("completes = %d", got)
	}
	if got := len(l.Filter(KindAdapt)); got != 0 {
		t.Errorf("adapts = %d", got)
	}
}

func TestCountByKind(t *testing.T) {
	counts := sampleLog().CountByKind()
	if counts[KindPhaseStart] != 2 || counts[KindComplete] != 2 || counts[KindCalibrate] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLog().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 { // header + 7 events
		t.Errorf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "at_ns,kind") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "calibrate") {
		t.Errorf("row = %q", lines[2])
	}
}

func TestThroughput(t *testing.T) {
	l := New()
	for _, at := range []time.Duration{
		100 * time.Millisecond, 900 * time.Millisecond, // bucket 0
		1100 * time.Millisecond,                          // bucket 1
		2500 * time.Millisecond, 2900 * time.Millisecond, // bucket 2
	} {
		l.Append(Event{At: at, Kind: KindComplete})
	}
	buckets := l.Throughput(time.Second, 3*time.Second)
	want := []int{2, 1, 2, 0}
	if len(buckets) != len(want) {
		t.Fatalf("buckets = %d, want %d", len(buckets), len(want))
	}
	for i, w := range want {
		if buckets[i].Completions != w {
			t.Errorf("bucket %d = %d, want %d", i, buckets[i].Completions, w)
		}
		if buckets[i].Start != time.Duration(i)*time.Second {
			t.Errorf("bucket %d start = %v", i, buckets[i].Start)
		}
	}
}

func TestThroughputDegenerate(t *testing.T) {
	l := New()
	if l.Throughput(0, 0) != nil {
		t.Error("zero width and horizon should be nil")
	}
	l.Append(Event{At: time.Second, Kind: KindComplete})
	b := l.Throughput(0, 2*time.Second) // width defaults to horizon
	if len(b) == 0 || b[0].Completions != 1 {
		t.Errorf("buckets = %v", b)
	}
}

// TestThroughputCoversOnlyTheRetainedEvents: the series starts at the
// oldest retained event's bucket, not at time zero, and a span too long
// for MaxBuckets widens its buckets instead of growing the series.
func TestThroughputCoversOnlyTheRetainedEvents(t *testing.T) {
	cases := []struct {
		name      string
		at        []time.Duration
		wantWidth time.Duration
	}{
		{"an hour in", []time.Duration{time.Hour, time.Hour + 3*time.Millisecond}, time.Millisecond},
		{"an hour wide", []time.Duration{time.Millisecond, 30 * time.Minute, time.Hour}, 360 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := New()
			for i, at := range tc.at {
				l.Append(Event{At: at, Kind: KindComplete, Task: i})
			}
			b := l.Throughput(time.Millisecond, tc.at[len(tc.at)-1])
			if len(b) == 0 || len(b) > MaxBuckets {
				t.Fatalf("%d buckets, want 1..%d", len(b), MaxBuckets)
			}
			if first := tc.at[0]; b[0].Start > first || first-b[0].Start >= tc.wantWidth {
				t.Errorf("series starts at %v, want the bucket of the first event at %v", b[0].Start, first)
			}
			total := 0
			for i, bk := range b {
				if i > 0 && bk.Start-b[i-1].Start != tc.wantWidth {
					t.Fatalf("bucket %d is %v wide, want %v", i-1, bk.Start-b[i-1].Start, tc.wantWidth)
				}
				total += bk.Completions
			}
			if total != len(tc.at) {
				t.Errorf("buckets count %d completions, want %d", total, len(tc.at))
			}
		})
	}
}

func TestPhases(t *testing.T) {
	spans := sampleLog().Phases()
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	if spans[0].Name != "calibration" || spans[0].Start != 0 || spans[0].End != 2*time.Second {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].Name != "execution" || spans[1].End != -1 {
		t.Errorf("span 1 should be open: %+v", spans[1])
	}
}

func TestPhasesRepeatedName(t *testing.T) {
	l := New()
	l.Append(Event{At: 0, Kind: KindPhaseStart, Msg: "calibration"})
	l.Append(Event{At: time.Second, Kind: KindPhaseEnd, Msg: "calibration"})
	l.Append(Event{At: 2 * time.Second, Kind: KindPhaseStart, Msg: "calibration"})
	l.Append(Event{At: 3 * time.Second, Kind: KindPhaseEnd, Msg: "calibration"})
	spans := l.Phases()
	if len(spans) != 2 || spans[0].End != time.Second || spans[1].Start != 2*time.Second {
		t.Errorf("spans = %v", spans)
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Append(Event{Kind: KindNote})
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Errorf("Len = %d, want 800", l.Len())
	}
}

func TestString(t *testing.T) {
	s := sampleLog().String()
	if !strings.Contains(s, "7 events") || !strings.Contains(s, "complete=2") {
		t.Errorf("String = %q", s)
	}
}

func TestBoundedRingSemantics(t *testing.T) {
	l := NewBounded(4)
	for i := 0; i < 10; i++ {
		l.Append(Event{At: time.Duration(i), Kind: KindComplete, Task: i})
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	if l.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", l.Dropped())
	}
	if l.Total() != 10 {
		t.Fatalf("Total = %d, want 10", l.Total())
	}
	evs := l.Events()
	for i, e := range evs {
		if e.Task != 6+i {
			t.Fatalf("event %d has Task %d, want %d (oldest retained must be #6)", i, e.Task, 6+i)
		}
	}
	if last, ok := l.Last(); !ok || last.Task != 9 {
		t.Fatalf("Last = %+v ok=%v, want Task 9", last, ok)
	}
}

func TestBoundedUnderCap(t *testing.T) {
	l := NewBounded(8)
	for i := 0; i < 3; i++ {
		l.Append(Event{Kind: KindNote, Task: i})
	}
	if l.Len() != 3 || l.Dropped() != 0 || l.Total() != 3 {
		t.Fatalf("Len/Dropped/Total = %d/%d/%d", l.Len(), l.Dropped(), l.Total())
	}
	if got := l.Events(); len(got) != 3 || got[2].Task != 2 {
		t.Fatalf("Events = %+v", got)
	}
}

func TestBoundedDefaultCap(t *testing.T) {
	l := NewBounded(0)
	l.Append(Event{Kind: KindNote})
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestSinceCursor(t *testing.T) {
	l := NewBounded(4)
	for i := 0; i < 6; i++ {
		l.Append(Event{Kind: KindComplete, Task: i})
	}
	// Retained: tasks 2..5 at absolute seqs 2..5.
	evs, next := l.Since(0) // clamps forward past the dropped events
	if len(evs) != 4 || evs[0].Task != 2 || next != 6 {
		t.Fatalf("Since(0) = %d events first=%+v next=%d", len(evs), evs[0], next)
	}
	evs, next = l.Since(4)
	if len(evs) != 2 || evs[0].Task != 4 || next != 6 {
		t.Fatalf("Since(4) = %d events next=%d", len(evs), next)
	}
	evs, next = l.Since(next)
	if len(evs) != 0 || next != 6 {
		t.Fatalf("Since(end) = %d events next=%d", len(evs), next)
	}
	// A cursor past the end (carried across a restart) clamps back.
	evs, next = l.Since(100)
	if len(evs) != 0 || next != 6 {
		t.Fatalf("Since(100) = %d events next=%d", len(evs), next)
	}
	l.Append(Event{Kind: KindComplete, Task: 6})
	evs, next = l.Since(next)
	if len(evs) != 1 || evs[0].Task != 6 || next != 7 {
		t.Fatalf("incremental Since = %d events next=%d", len(evs), next)
	}
}

func TestSinceUnbounded(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		l.Append(Event{Kind: KindDispatch, Task: i})
	}
	evs, next := l.Since(3)
	if len(evs) != 2 || evs[0].Task != 3 || next != 5 {
		t.Fatalf("Since(3) = %d events next=%d", len(evs), next)
	}
}

// TestBoundedReducers checks the reducers see the ring in append order.
func TestBoundedReducers(t *testing.T) {
	l := NewBounded(3)
	l.Append(Event{At: 0, Kind: KindPhaseStart, Msg: "run"})
	l.Append(Event{At: time.Second, Kind: KindComplete, Task: 0})
	l.Append(Event{At: 2 * time.Second, Kind: KindComplete, Task: 1})
	l.Append(Event{At: 3 * time.Second, Kind: KindPhaseEnd, Msg: "run"})
	// phase_start was overwritten; the reducer must still cope.
	if n := len(l.Filter(KindComplete)); n != 2 {
		t.Fatalf("Filter completes = %d", n)
	}
	buckets := l.Throughput(time.Second, 3*time.Second)
	var total int
	for _, b := range buckets {
		total += b.Completions
	}
	if total != 2 {
		t.Fatalf("Throughput total = %d", total)
	}
}

func TestBoundedConcurrentAppend(t *testing.T) {
	l := NewBounded(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append(Event{Kind: KindNote, Task: i})
			}
		}()
	}
	wg.Wait()
	if l.Total() != 800 {
		t.Fatalf("Total = %d, want 800", l.Total())
	}
	if l.Len() != 64 || l.Dropped() != 736 {
		t.Fatalf("Len/Dropped = %d/%d", l.Len(), l.Dropped())
	}
}

// BenchmarkBoundedAppend guards the allocation-free ring append the
// cluster dispatch hot path relies on.
func BenchmarkBoundedAppend(b *testing.B) {
	l := NewBounded(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append(Event{At: time.Duration(i), Kind: KindDispatch, Node: "n0", Task: i})
	}
}
