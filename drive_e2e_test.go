// A streaming client for the end-to-end suites: it drives jobs through the
// daemon's HTTP API as a producer and a poller do, and fails the test
// unless each delivers every task exactly once.
package grasp_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"
)

// drive is one job a test streams into a daemon: tasks of sleepUS each,
// IDs 0..tasks-1, pushed batch at a time.
type drive struct {
	api, name string
	// create is the create body beyond the name (skeleton, window,
	// placement, adapt, …).
	create       map[string]any
	tasks, batch int
	sleepUS      int64
	// trickle, when set, makes the stream a flash crowd: its first fifth
	// (at least one batch) arrives in batch-sized pushes this far apart,
	// then the rest bursts in 4×batch pushes back to back.
	trickle time.Duration
}

// driven is what a drive observed.
type driven struct {
	completed, duplicates int
	// shed counts the pushes answered 429; retryAfter is the largest
	// Retry-After among them.
	shed       int
	retryAfter time.Duration
	status     struct {
		State       string `json:"state"`
		Adapt       string `json:"adapt"`
		Shed        int    `json:"shed"`
		MaxInFlight int    `json:"max_in_flight"`
	}
}

// driveAll runs the drives concurrently, each to done within the bound:
// create, push (waiting out each 429's Retry-After), close, poll the
// results cursor to done, read the final status.
func driveAll(t *testing.T, within time.Duration, drives ...drive) []driven {
	t.Helper()
	deadline := time.Now().Add(within)
	outs := make([]driven, len(drives))
	var wg sync.WaitGroup
	for i, d := range drives {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.run(t, deadline, &outs[i]); err != nil {
				t.Errorf("drive %s: %v", d.name, err)
			}
		}()
	}
	wg.Wait()
	return outs
}

func (d drive) run(t *testing.T, deadline time.Time, out *driven) error {
	create := map[string]any{"name": d.name}
	maps.Copy(create, d.create)
	if code, err := httpJSON(t, "POST", d.api+"/api/v1/jobs", create, nil); err != nil || code != http.StatusCreated {
		return fmt.Errorf("create: HTTP %d err %v", code, err)
	}
	burstAt := d.tasks
	if d.trickle > 0 {
		burstAt = min(max(d.tasks/5, d.batch), d.tasks)
	}
	for from := 0; from < d.tasks; {
		to := min(from+d.batch, burstAt)
		if from >= burstAt {
			to = min(from+4*d.batch, d.tasks)
		} else if from > 0 {
			time.Sleep(d.trickle) // zero unless trickling
		}
		if err := d.push(from, to, deadline, out); err != nil {
			return err
		}
		from = to
	}
	if code, err := httpJSON(t, "POST", d.api+"/api/v1/jobs/"+d.name+"/close", nil, nil); err != nil || code != http.StatusOK {
		return fmt.Errorf("close: HTTP %d err %v", code, err)
	}
	seen := make(map[int]bool, d.tasks)
	for cursor := 0; ; {
		var page struct {
			Results []struct {
				ID int `json:"id"`
			} `json:"results"`
			Next  int    `json:"next"`
			State string `json:"state"`
		}
		// A poll at the watermark waits in the daemon for the next result.
		url := fmt.Sprintf("%s/api/v1/jobs/%s/results?after=%d", d.api, d.name, cursor)
		if code, err := httpJSON(t, "GET", url, nil, &page); err != nil || code != http.StatusOK {
			return fmt.Errorf("poll: HTTP %d err %v", code, err)
		}
		for _, r := range page.Results {
			if seen[r.ID] {
				out.duplicates++
			}
			seen[r.ID] = true
		}
		out.completed, cursor = len(seen), page.Next
		if page.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d/%d completed at the deadline", out.completed, d.tasks)
		}
	}
	if out.completed != d.tasks || out.duplicates != 0 {
		return fmt.Errorf("%d/%d tasks completed, %d duplicates", out.completed, d.tasks, out.duplicates)
	}
	if code, err := httpJSON(t, "GET", d.api+"/api/v1/jobs/"+d.name, nil, &out.status); err != nil || code != http.StatusOK {
		return fmt.Errorf("status: HTTP %d err %v", code, err)
	}
	return nil
}

// push POSTs tasks [from, to), re-offering the batch after each 429's
// Retry-After until it is admitted or the deadline would pass.
func (d drive) push(from, to int, deadline time.Time, out *driven) error {
	tasks := make([]map[string]any, 0, to-from)
	for id := from; id < to; id++ {
		tasks = append(tasks, map[string]any{"id": id, "sleep_us": d.sleepUS})
	}
	body, _ := json.Marshal(map[string]any{"tasks": tasks})
	for {
		resp, err := http.Post(d.api+"/api/v1/jobs/"+d.name+"/tasks", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			return nil
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			return fmt.Errorf("push [%d,%d): HTTP %d", from, to, resp.StatusCode)
		}
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		wait := time.Duration(secs) * time.Second
		out.shed++
		out.retryAfter = max(out.retryAfter, wait)
		if time.Now().Add(wait).After(deadline) {
			return fmt.Errorf("shed %d times; Retry-After %v passes the deadline", out.shed, wait)
		}
		time.Sleep(max(wait, 10*time.Millisecond))
	}
}
