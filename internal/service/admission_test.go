package service

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grasp/internal/stats"
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
// Both cases are graded after the queue has filled: the fill itself goes
// from empty to window + 1 in well under one forecast sample, and a trend
// line through [0, 12] extrapolates to 24 — a shed episode of a few
// milliseconds that is the forecaster's cold start (seen in 1 of 60 runs
// under -race), not the bound this test is about.
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
			time.Sleep(50 * time.Millisecond)
			cold := j.Status().Shed
			wg.Wait()
			if err := j.CloseInput(); err != nil {
				t.Fatal(err)
			}
			waitDone(t, j, 30*time.Second)

			st := j.Status()
			if int64(st.Shed) != refused.Load() {
				t.Errorf("status counts %d shed pushes, pushers saw %d", st.Shed, refused.Load())
			}
			shed := st.Shed - cold
			if tc.wantShed && shed == 0 {
				t.Errorf("0 of %d pushes shed with %d pushers of %d-task batches on a window of %d: admission control is off",
					pushes.Load(), tc.pushers, tc.batch, window)
			}
			if !tc.wantShed && shed != 0 {
				t.Errorf("%d of %d pushes shed for one closed-loop client pushing %d tasks at a time into a window of %d",
					shed, pushes.Load(), tc.batch, window)
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
