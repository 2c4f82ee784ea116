package experiments

import (
	"sync"
	"time"

	"grasp/internal/report"
	"grasp/internal/service"
	"grasp/internal/trace"
)

// E30FlashCrowdAutoscale drives the service's queue-depth forecaster with
// a flash crowd: a predictive job idles along on a trickle of tasks, then
// a burst an order of magnitude deeper than its window lands at once. The
// forecast loop must see the spike, boost the job's fair share through the
// allocator (pulling worker slots from a calm competing job), and surface
// the whole episode through JobStatus — queue forecast, effective share,
// per-worker forecast values — while admission control stays out of the
// way (shedding is disabled here; TestScenarioE2EFlashCrowd owns that half).
//
// Expected shape: both jobs deliver every task exactly once, the crowd
// job's effective share rises above its declared share during the burst,
// the queue forecast exceeds the window, forecast events land in the
// job's timeline, and nothing is shed.
func E30FlashCrowdAutoscale(seed int64) Result {
	_ = seed // real-time placement: shapes must hold on any healthy machine
	const (
		workers  = 4
		window   = 8
		trickleN = 24
		burstN   = 280
		steadyN  = 120
		sleepUS  = 500
	)
	s := service.New(service.Config{
		Workers:       workers,
		DefaultWindow: window,
		WarmupTasks:   4,
		ForecastEvery: 2 * time.Millisecond,
		ShedFactor:    -1, // admission control off: E30 isolates the autoscaler
	})
	defer s.Close()

	steady, err := s.Submit("steady", service.JobSpec{})
	if err != nil {
		panic(err)
	}
	crowd, err := s.Submit("crowd", service.JobSpec{Adapt: service.AdaptPredictive})
	if err != nil {
		panic(err)
	}

	// A calm competitor: the slots the autoscaler pulls must come from
	// somewhere.
	steady.Push(sleepSpecs(0, steadyN, 2*sleepUS))
	steady.CloseInput()

	// Poll the crowd job's status while it runs: the boost is released as
	// the queue drains, so the peak is only visible live.
	var (
		mu          sync.Mutex
		maxShare    float64
		maxForecast float64
	)
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			st := crowd.Status()
			mu.Lock()
			if st.EffectiveShare > maxShare {
				maxShare = st.EffectiveShare
			}
			if st.QueueForecast > maxForecast {
				maxForecast = st.QueueForecast
			}
			mu.Unlock()
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	// The flash crowd: a trickle, then the burst in one push.
	for base := 0; base < trickleN; base += window {
		crowd.Push(sleepSpecs(base, window, sleepUS))
		time.Sleep(3 * time.Millisecond)
	}
	crowd.Push(sleepSpecs(trickleN, burstN, sleepUS))
	crowd.CloseInput()

	crowdDone := waitJob(crowd)
	steadyDone := waitJob(steady)
	close(stop)
	pollers.Wait()

	st := crowd.Status()
	crowdResults, _ := crowd.Results(0)
	steadyResults, _ := steady.Results(0)
	crowdOnce := exactlyOnce(crowdResults, 0, trickleN+burstN)
	steadyOnce := exactlyOnce(steadyResults, 0, steadyN)
	forecastEvents := len(crowd.Trace().Filter(trace.KindForecast))
	mu.Lock()
	peakShare, peakForecast := maxShare, maxForecast
	mu.Unlock()

	table := report.NewTable("E30 — flash crowd: queue-depth forecast autoscales the fair share",
		"observation", "shape")
	table.AddRow("crowd job delivers every task exactly once", yesNo(crowdDone && crowdOnce))
	table.AddRow("steady competitor unharmed (exactly once)", yesNo(steadyDone && steadyOnce))
	table.AddRow("effective share rose above the declared share", yesNo(peakShare > 1))
	table.AddRow("queue forecast exceeded the window", yesNo(peakForecast > window))
	table.AddRow("forecast events in the job timeline", yesNo(forecastEvents >= 1))
	table.AddRow("per-worker forecasts surfaced in status", yesNo(len(st.ForecastMicros) > 0))
	table.AddRow("nothing shed", yesNo(st.Shed == 0))
	table.AddNote("trickle of %d then a burst of %d tasks into a window of %d; %d workers shared with a %d-task competitor",
		trickleN, burstN, window, workers, steadyN)

	checks := []Check{
		check("crowd-exactly-once", crowdDone && crowdOnce,
			"done=%v, %d results", crowdDone, len(crowdResults)),
		check("steady-exactly-once", steadyDone && steadyOnce,
			"done=%v, %d results", steadyDone, len(steadyResults)),
		check("share-autoscaled", peakShare > 1,
			"peak effective share %.2f for declared share 1", peakShare),
		check("forecast-saw-the-burst", peakForecast > window,
			"peak queue forecast %.1f vs window %d", peakForecast, window),
		check("forecast-events-traced", forecastEvents >= 1,
			"%d forecast events", forecastEvents),
		check("worker-forecasts-surfaced", len(st.ForecastMicros) > 0,
			"%d workers with forecasts", len(st.ForecastMicros)),
		check("nothing-shed", st.Shed == 0, "shed=%d", st.Shed),
	}
	return Result{ID: "E30", Title: "Flash-crowd share autoscaling", Table: table, Checks: checks}
}

// runnerE30 registers E30 in the experiment index with its execution
// placement — the substrate seam every experiment declares.
var runnerE30 = Runner{ID: "E30", Title: "Flash crowd: forecast-driven share autoscaling", Placement: PlaceLocal, Run: E30FlashCrowdAutoscale}
