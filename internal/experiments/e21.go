package experiments

import (
	"fmt"
	"net/http"

	"grasp/internal/report"
	"grasp/internal/service"
)

// E21DaemonHTTP drives the daemon's JSON HTTP API end to end: three
// concurrent jobs of three different skeletons (farm, pipeline, dmap)
// created, fed, closed, and polled entirely over the wire — exactly what
// graspd serves, behind an httptest listener.
//
// Expected shape: every skeleton flows through the same endpoints (the
// service layer is skeleton-agnostic), each job drains exactly-once, the
// results cursor is stable at end of stream, and the API's contract
// holds — malformed submissions are rejected with 400, duplicate names
// with 409, unknown jobs with 404.
func E21DaemonHTTP(seed int64) Result {
	_ = seed // real-time placement: shapes must hold on any healthy machine
	const (
		perJob  = 24
		batch   = 12
		sleepUS = 300
	)
	api, stop := serveAPI(service.New(service.Config{Workers: 4, WarmupTasks: 4}))
	defer stop()

	jobs := []struct {
		name string
		spec map[string]any
	}{
		{"http-farm", map[string]any{"name": "http-farm"}},
		{"http-pipe", map[string]any{"name": "http-pipe", "skeleton": "pipeline",
			"stages": []map[string]any{{"name": "decode"}, {"name": "work", "cost_factor": 2}, {"name": "encode"}}}},
		{"http-dmap", map[string]any{"name": "http-dmap", "skeleton": "dmap", "wave_size": 8}},
	}

	table := report.NewTable("E21 — mixed-skeleton jobs over the daemon HTTP API",
		"job", "skeleton", "created", "tasks", "completed", "exactly-once", "cursor-stable")
	var checks []Check

	type resultsPage struct {
		Results []service.TaskResult `json:"results"`
		Next    int                  `json:"next"`
		State   string               `json:"state"`
	}

	for _, jb := range jobs {
		code := api("POST", "/api/v1/jobs", jb.spec, nil)
		created := code == http.StatusCreated

		accepted := 0
		for b := 0; b < perJob/batch; b++ {
			specs := sleepSpecs(b*batch, batch, sleepUS)
			var ack struct {
				Accepted int `json:"accepted"`
			}
			if api("POST", "/api/v1/jobs/"+jb.name+"/tasks", map[string]any{"tasks": specs}, &ack) == http.StatusAccepted {
				accepted += ack.Accepted
			}
		}
		api("POST", "/api/v1/jobs/"+jb.name+"/close", nil, nil)

		// Poll status over the wire until the drain completes.
		var st service.JobStatus
		waitFor(func() bool {
			api("GET", "/api/v1/jobs/"+jb.name, nil, &st)
			return st.State == service.JobDone
		})

		// Drain the cursor, then re-poll from the end: a terminal cursor must
		// return nothing new and stand still.
		var page, tail resultsPage
		api("GET", fmt.Sprintf("/api/v1/jobs/%s/results?after=%d", jb.name, 0), nil, &page)
		api("GET", fmt.Sprintf("/api/v1/jobs/%s/results?after=%d", jb.name, page.Next), nil, &tail)
		once := exactlyOnce(page.Results, 0, perJob)
		cursorStable := page.Next == perJob && len(tail.Results) == 0 &&
			tail.Next == page.Next && tail.State == service.JobDone

		table.AddRow(jb.name, st.Skeleton, yesNo(created), accepted, st.Completed,
			yesNo(once), yesNo(cursorStable))
		checks = append(checks,
			check(jb.name+"-created", created, "POST /api/v1/jobs → %d", code),
			check(jb.name+"-drains", st.State == service.JobDone && st.Completed == perJob && accepted == perJob,
				"state=%s completed=%d accepted=%d of %d", st.State, st.Completed, accepted, perJob),
			check(jb.name+"-exactly-once", once, "%d results over the wire", len(page.Results)),
			check(jb.name+"-cursor-stable", cursorStable,
				"next=%d tail=%d results", page.Next, len(tail.Results)),
		)
	}
	table.AddNote("same endpoints for every topology; served by service.NewHandler behind httptest")

	// API contract: the machine-checkable error surface.
	badCode := api("POST", "/api/v1/jobs", map[string]any{"name": "bad", "skeleton": "quux"}, nil)
	dupCode := api("POST", "/api/v1/jobs", map[string]any{"name": "http-farm"}, nil)
	missCode := api("GET", "/api/v1/jobs/no-such-job", nil, nil)
	checks = append(checks,
		check("http-400-on-bad-skeleton", badCode == http.StatusBadRequest, "got %d", badCode),
		check("http-409-on-duplicate-name", dupCode == http.StatusConflict, "got %d", dupCode),
		check("http-404-on-unknown-job", missCode == http.StatusNotFound, "got %d", missCode),
	)
	return Result{ID: "E21", Title: "Mixed skeletons over the daemon HTTP API", Table: table, Checks: checks}
}

// runnerE21 registers E21 in the experiment index with its execution
// placement — the substrate seam every experiment declares.
var runnerE21 = Runner{ID: "E21", Title: "Mixed-skeleton jobs over the daemon HTTP API", Placement: PlaceLocal, Run: E21DaemonHTTP}
