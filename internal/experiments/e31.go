package experiments

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"time"

	"grasp/internal/loadgen"
	"grasp/internal/report"
	"grasp/internal/service"
)

// E31SustainedOverload holds a predictive job under demand above its
// capacity and watches admission control do its job over the real wire: a
// loadgen driver pushes the sustained-overload profile at a daemon whose
// queue-depth forecast bound is deliberately tight, so the service sheds
// pushes with HTTP 429 + Retry-After instead of buffering without bound.
// The driver honours every Retry-After and re-offers the shed batches, so
// the stream eventually lands in full — overload degrades admission, never
// correctness.
//
// Expected shape: some pushes are shed with 429 and a Retry-After header,
// the daemon's shed counter agrees with the client's, and every admitted
// task completes exactly once.
func E31SustainedOverload(seed int64) Result {
	const (
		workers = 4
		window  = 4
		nTasks  = 100
		batch   = 12
	)
	s := service.New(service.Config{
		Workers:       workers,
		DefaultWindow: window,
		WarmupTasks:   4,
		ForecastEvery: time.Millisecond,
		ShedFactor:    1, // bound = 1 × window: tight, so overload must shed
	})
	defer s.Close()
	srv := httptest.NewServer(service.NewHandler(s))
	defer srv.Close()

	d := loadgen.Driver{
		BaseURL:     srv.URL,
		Jobs:        1,
		TasksPerJob: nTasks,
		Batch:       batch,
		// Slow tasks and wide pacing: each batch takes far longer to drain
		// than the gap to the next push, so the daemon is genuinely
		// saturated — and the shed decision never races the arrival rate.
		// The arithmetic: a push returns with window + 1 = 5 of its tasks
		// still in the daemon (4 credits, one staged slot) and the next
		// lands 25 ms later. At 20 ms a task four of the five finish inside
		// that gap, the forecast falls under bound/2 = 2 and nothing is ever
		// shed; at 40 ms all five are still there.
		SleepUS:   40_000,
		PollEvery: 100 * time.Millisecond, // sustained profile paces pushes PollEvery/4 apart
		Window:    window,
		Timeout:   modernTimeout,
		Seed:      seed,
		JobPrefix: "overload",
		Adapt:     service.AdaptPredictive,
		Profile:   loadgen.ProfileSustainedOverload,
	}
	summary := d.Run()
	out := summary.Jobs[0]

	// Read the episode back from the daemon: its shed accounting must agree
	// with what the client experienced.
	var st struct {
		Adapt string `json:"adapt"`
		Shed  int    `json:"shed"`
	}
	resp, err := http.Get(srv.URL + "/api/v1/jobs/overload-0")
	if err != nil {
		panic(err)
	}
	code := resp.StatusCode
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		panic(err)
	}
	resp.Body.Close()

	table := report.NewTable("E31 — sustained overload: admission control sheds, delivery stays exactly-once",
		"observation", "shape")
	table.AddRow("driver run clean (every task exactly once)", yesNo(summary.OK()))
	table.AddRow("pushes shed with HTTP 429", yesNo(summary.Shed > 0))
	table.AddRow("Retry-After advertised on shed responses", yesNo(out.RetryAfter >= time.Second))
	table.AddRow("daemon and client agree on shed count", yesNo(st.Shed == summary.Shed))
	table.AddRow("predictive policy surfaced in status", yesNo(st.Adapt == service.AdaptPredictive))
	table.AddNote("%d tasks in %d-task batches against %d workers, window %d, admission bound %d; shed batches re-offered after Retry-After",
		nTasks, 2*batch, workers, window, window)

	checks := []Check{
		check("exactly-once-under-overload", summary.OK(),
			"tasks=%d completed=%d errors=%v", summary.Tasks, summary.Completed, summary.Errors),
		check("sheds-happened", summary.Shed > 0, "shed=%d batches", summary.Shed),
		check("retry-after-advertised", out.RetryAfter >= time.Second,
			"largest Retry-After %v", out.RetryAfter),
		check("shed-accounting-agrees", code == http.StatusOK && st.Shed == summary.Shed,
			"HTTP %d daemon=%d client=%d", code, st.Shed, summary.Shed),
		check("adapt-surfaced", st.Adapt == service.AdaptPredictive, "adapt=%q", st.Adapt),
	}
	return Result{ID: "E31", Title: "Sustained overload: shedding with exactly-once delivery", Table: table, Checks: checks}
}

// runnerE31 registers E31 in the experiment index with its execution
// placement — the substrate seam every experiment declares.
var runnerE31 = Runner{ID: "E31", Title: "Sustained overload: 429 shedding with exactly-once delivery", Placement: PlaceLocal, Run: E31SustainedOverload}
