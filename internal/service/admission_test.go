package service

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grasp/internal/stats"
	"grasp/internal/trace"
)

// TestAdmissionShedsOnlyLoadWaitingOutsideTheEngine pins what the shed
// bound measures at the default ShedFactor (2 × window). A job's queue
// depth is window + 1 tasks held by the daemon plus whatever sits in
// blocked pushes, so one well-behaved closed-loop client — a quarter
// window per push, the next push only after the last returned — never
// comes near the bound and must never see ErrOverloaded. (Were the daemon
// to buffer a second window of its own in front of the engine, its own
// buffering would equal the bound and that client would lose about 45 % of
// its pushes.) Three concurrent pushers of two windows each do pile load
// up outside the engine, and must still be shed.
//
// Both cases are graded from the first push: the fill goes from empty to
// window + 1 in well under one forecast sample, but a forecast window that
// young is judged by its level, so the fill's slope sheds nothing
// (TestForecastYoungWindowJudgedByLevel).
func TestAdmissionShedsOnlyLoadWaitingOutsideTheEngine(t *testing.T) {
	const window = 8
	cases := []struct {
		name           string
		pushers, batch int
		wantShed       bool
	}{
		{"lone-client-never-shed", 1, window / 4, false},
		{"concurrent-overload-still-shed", 3, 2 * window, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 2, WarmupTasks: 2, ForecastEvery: time.Millisecond})
			j, err := s.Submit("adm", JobSpec{Window: window, Adapt: AdaptPredictive})
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg              sync.WaitGroup
				nextID          atomic.Int64
				pushes, refused atomic.Int64
			)
			stop := time.Now().Add(time.Second)
			for p := 0; p < tc.pushers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for time.Now().Before(stop) {
						base := int(nextID.Add(int64(tc.batch))) - tc.batch
						pushes.Add(1)
						_, err := j.Push(burst(base, tc.batch, 2000))
						switch {
						case errors.Is(err, ErrOverloaded):
							refused.Add(1)
							time.Sleep(time.Millisecond)
						case err != nil:
							t.Errorf("push: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if err := j.CloseInput(); err != nil {
				t.Fatal(err)
			}
			waitDone(t, j, 30*time.Second)

			st := j.Status()
			if int64(st.Shed) != refused.Load() {
				t.Errorf("status counts %d shed pushes, pushers saw %d", st.Shed, refused.Load())
			}
			if tc.wantShed && st.Shed == 0 {
				t.Errorf("0 of %d pushes shed with %d pushers of %d-task batches on a window of %d: admission control is off",
					pushes.Load(), tc.pushers, tc.batch, window)
			}
			if !tc.wantShed && st.Shed != 0 {
				t.Errorf("%d of %d pushes shed for one closed-loop client pushing %d tasks at a time into a window of %d",
					st.Shed, pushes.Load(), tc.batch, window)
			}
			if st.Completed != st.Submitted || st.Submitted == 0 {
				t.Errorf("completed %d of %d submitted", st.Completed, st.Submitted)
			}
			assertConserved(t, s)
		})
	}
}

// TestForecastColdStartDecidesNothing: the first samples of a job filling
// its window — 0, then window + 1 tasks and a blocked quarter-window push —
// put a trend line at twice the shed bound's distance; with fewer than
// forecastWindow/2 samples the forecaster must not act on it. Once the
// window has seen enough of a queue that really is growing, it sheds.
func TestForecastColdStartDecidesNothing(t *testing.T) {
	s := New(Config{Workers: 2, WarmupTasks: 2, ForecastEvery: time.Hour}) // the loop never samples: the test does
	j, err := s.Submit("cold", JobSpec{Window: 8, Adapt: AdaptPredictive})
	if err != nil {
		t.Fatal(err)
	}
	activations := s.reg.Counter("service_shed_activations_total")
	depth := stats.NewTrendWindow(forecastWindow)
	for _, inFlight := range []int{0, 12} {
		s.forecastStep(j, depth, inFlight)
		if st := j.Status(); st.Shedding || st.QueueForecast != 0 || activations.Value() != 0 {
			t.Fatalf("after samples ending in %d: shedding=%v forecast=%v activations=%d; want no decision from %d samples",
				inFlight, st.Shedding, st.QueueForecast, activations.Value(), depth.Len())
		}
	}
	for _, inFlight := range []int{24, 36} {
		s.forecastStep(j, depth, inFlight)
	}
	if st := j.Status(); !st.Shedding || activations.Value() != 1 {
		t.Errorf("after 0, 12, 24, 36 against a bound of 16: shedding=%v activations=%d; want shed once", st.Shedding, activations.Value())
	}
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 10*time.Second)
}

// TestForecastYoungWindowJudgedByLevel is the cold start's second half: a
// first sample of 0 tilts a trend line through a queue that filled and
// then stood still — [0, 12, 12, 12] extrapolates to 18 against a bound of
// 2 × 8 = 16 — so until the window holds forecastWindow samples the level
// decides. Once it is full the slope does: a steady ramp whose level has
// not crossed the bound is shed one step ahead.
func TestForecastYoungWindowJudgedByLevel(t *testing.T) {
	cases := []struct {
		name     string
		samples  []int
		wantShed bool
	}{
		{"filled-then-flat-never-shed", []int{0, 12, 12, 12}, false},
		{"full-window-ramp-shed-ahead", []int{2, 4, 6, 8, 10, 12, 14, 16}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 2, WarmupTasks: 2, ShedFactor: 2, ForecastEvery: time.Hour}) // the loop never samples: the test does
			j, err := s.Submit("young", JobSpec{Window: 8, Adapt: AdaptPredictive})
			if err != nil {
				t.Fatal(err)
			}
			depth := stats.NewTrendWindow(forecastWindow)
			for _, inFlight := range tc.samples {
				s.forecastStep(j, depth, inFlight)
			}
			activations := s.reg.Counter("service_shed_activations_total").Value()
			if st := j.Status(); st.Shedding != tc.wantShed || (activations == 1) != tc.wantShed {
				t.Errorf("after %v against a bound of 16: shedding=%v activations=%d forecast=%.1f; want shed %v",
					tc.samples, st.Shedding, activations, st.QueueForecast, tc.wantShed)
			}
			if err := j.CloseInput(); err != nil {
				t.Fatal(err)
			}
			waitDone(t, j, 10*time.Second)
		})
	}
}

// TestDeferredMembershipDeltaLandsOnTheNextResult pins the one case in
// which a completion still has membership work to do. onResult flushes a
// membership delta only while one is pending, and one is pending only
// after its send found the job's control buffer full. Here the coordinator
// is parked behind one long task while the buffer is stuffed, a share-3
// competitor's arrival shrinks the lone job from four workers to one — a
// delta that cannot be sent — and the long task's result must deliver it:
// the engine removes three workers, and the flag clears so later results
// walk no sets.
func TestDeferredMembershipDeltaLandsOnTheNextResult(t *testing.T) {
	s := New(Config{Workers: 4, WarmupTasks: 1000})
	light, err := s.Submit("light", JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// Once the task is dispatched the coordinator waits for its result and
	// drains control on nothing else.
	if _, err := light.Push(burst(0, 1, 200_000)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "the long task's dispatch", func() bool {
		return len(light.tr.Filter(trace.KindDispatch)) == 1
	})
	for light.control.TrySend(nil, struct{}{}) { // not an engine.Update: drained and ignored
	}
	three := 3.0
	heavy, err := s.Submit("heavy", JobSpec{Share: &three})
	if err != nil {
		t.Fatal(err)
	}
	updates := s.reg.Counter("service_membership_updates_total")
	pending := func() bool {
		light.mu.Lock()
		defer light.mu.Unlock()
		return light.deltaPending
	}
	if st := light.Status(); st.Workers != 1 || !pending() || updates.Value() != 0 {
		t.Fatalf("after the competitor arrived on a full control buffer: workers=%d pending=%v updates=%d; want 1, a deferred delta, 0",
			st.Workers, pending(), updates.Value())
	}
	// The long task's result retries the deferred delta; a second task is
	// dispatched after the engine applied it and finds nothing pending.
	for id := 0; id < 2; id++ {
		if id > 0 {
			if _, err := light.Push(burst(id, 1, 0)); err != nil {
				t.Fatal(err)
			}
		}
		waitUntil(t, 10*time.Second, "the task to complete", func() bool { return light.Status().Completed == id+1 })
		if pending() || updates.Value() != 1 {
			t.Fatalf("after result %d: pending=%v updates=%d; want the deferred delta sent exactly once", id+1, pending(), updates.Value())
		}
	}
	for _, j := range []*Job{light, heavy} {
		if err := j.CloseInput(); err != nil {
			t.Fatal(err)
		}
		waitDone(t, j, 10*time.Second)
	}
	if rep := light.Report(); rep.WorkersRemoved != 3 {
		t.Errorf("engine removed %d workers from the lone job, want the 3 the competitor took", rep.WorkersRemoved)
	}
}
