package cluster

// Precision tests for the sleep half of the execution kernel. They hold
// where sleeps park on a timerfd: a sleep task wakes like I/O completing —
// never before its declared time, within tens of µs after it — and a
// degraded node reports the time a task actually took. On the runtime
// timer's millisecond grid (sleep_other.go) neither bound holds.

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// withinAttempts runs a timing measurement up to three times and fails
// with its last miss only if every attempt missed. go test ./... runs
// package binaries side by side on a two-core box, and a burst of their
// load delays every wake-up for a while; the runtime timer's millisecond
// grid misses the same bounds on every attempt. A hard property (never
// early) is checked inside measure with t.Fatalf and gets no retry.
func withinAttempts(t *testing.T, measure func() string) {
	t.Helper()
	var miss string
	for range 3 {
		if miss = measure(); miss == "" {
			return
		}
		t.Log(miss)
	}
	t.Error(miss)
}

// TestExecWorkWakesOnTime: 200 sleeps across 1.5–2.5 ms never end early,
// and the median one ends within 250 µs of its declared time. On the
// runtime's millisecond timer grid the median overshoot is ≈ 566 µs.
func TestExecWorkWakesOnTime(t *testing.T) {
	const n = 200
	withinAttempts(t, func() string {
		over := make([]time.Duration, n)
		for i := range over {
			declared := time.Duration(1500+i*1000/(n-1)) * time.Microsecond
			took := ExecWork(Work{SleepUS: declared.Microseconds()})
			if took < declared {
				t.Fatalf("sleep %d took %v, under its declared %v", i, took, declared)
			}
			over[i] = took - declared
		}
		slices.Sort(over)
		if p50 := over[n/2]; p50 > 250*time.Microsecond {
			return fmt.Sprintf("median overshoot %v, want <= 250µs (p10 %v, p90 %v, max %v)", p50, over[n/10], over[n*9/10], over[n-1])
		}
		return ""
	})
}

// TestExecWorkConcurrentSleeps: ExecWork's pooled sleepers serve callers
// that sleep at once — as a local job's slots do — each on its own timer:
// of 64 goroutines sleeping 2–8 ms together, none wakes before its
// declared time, which a timer re-armed by a shorter sleep would.
func TestExecWorkConcurrentSleeps(t *testing.T) {
	const n = 64
	took := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			took[i] = ExecWork(Work{SleepUS: int64(2000 + i%4*2000)})
		}()
	}
	wg.Wait()
	for i, d := range took {
		declared := time.Duration(2000+i%4*2000) * time.Microsecond
		if d < declared {
			t.Errorf("sleeper %d took %v, under its declared %v", i, d, declared)
		}
	}
}

// TestDegradedTaskReportsWhatItTook: ×4 of a 2 ms sleep reports 8.0–8.5 ms
// of execution — one clock over the task and its penalty, not the task's
// time plus the penalty it was meant to add.
func TestDegradedTaskReportsWhatItTook(t *testing.T) {
	co := testCoordinator(t, time.Second)
	url := startTestServer(t, co)
	startWorkerWith(t, WorkerConfig{
		Coordinator: url, ID: "slow", Capacity: 1,
		DegradeAfter: time.Nanosecond, DegradeFactor: 4,
	})
	live := co.Live()
	const n = 20
	attempt := 0
	withinAttempts(t, func() string {
		ch, err := co.submit(live[0].ID, live[0].Gen, sleepTasks(attempt*n, n, 2000))
		attempt++
		if err != nil {
			t.Fatal(err)
		}
		micros := make([]int64, n)
		for i := range micros {
			out := <-ch.sink
			if out.err != nil {
				t.Fatalf("task %d: %v", out.idx, out.err)
			}
			micros[i] = out.micros
		}
		slices.Sort(micros)
		if micros[0] < 8000 {
			t.Fatalf("fastest degraded task reported %d µs, under ×4 of its 2 ms", micros[0])
		}
		if p50 := micros[n/2]; p50 > 8500 {
			return fmt.Sprintf("median degraded task reported %d µs, want 8000–8500 (all: %v)", p50, micros)
		}
		return ""
	})
}
