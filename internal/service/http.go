package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// maxBodyBytes bounds a request body; maxTasksPerPush bounds one batch;
// maxWindow bounds a job's in-flight window, which sizes its runner's
// buffers; maxSleepUS and maxSpin bound one task's simulated work so a
// single request cannot wedge the shared platform's workers.
const (
	maxBodyBytes    = 8 << 20
	maxTasksPerPush = 100000
	maxWindow       = 65536
	maxSleepUS      = 60_000_000
	maxSpin         = 1_000_000_000
)

// resultsHold bounds how long a results poll at the watermark waits for
// the next visible result or lifecycle move before it answers with an
// empty page. Shorter costs an empty round trip per expiry; at 100 ms an
// idle poller costs the daemon ten requests a second.
const resultsHold = 100 * time.Millisecond

// resultsPage is the GET .../results reply. Gap, when positive, is how many
// results below the retention base the poller's cursor skipped unread.
type resultsPage struct {
	Results []TaskResult `json:"results"`
	Next    int          `json:"next"`
	State   string       `json:"state"`
	Gap     int          `json:"gap,omitempty"`
}

// createRequest is the POST /api/v1/jobs wire form.
type createRequest struct {
	Name string `json:"name"`
	JobSpec
}

// tasksEnvelope is the POST .../tasks wire form: either a bare JSON array
// of tasks or an object wrapping one.
type tasksEnvelope struct {
	Tasks []TaskSpec `json:"tasks"`
}

// decodeTasks parses a task-submission body: `[{...}, ...]` or
// `{"tasks": [{...}, ...]}`. It rejects unknown fields, oversized batches,
// and nonsensical task parameters.
func decodeTasks(body []byte) ([]TaskSpec, error) {
	trimmed := firstByte(body)
	var specs []TaskSpec
	switch trimmed {
	case '[':
		if err := strictUnmarshal(body, &specs); err != nil {
			return nil, err
		}
	case '{':
		var env tasksEnvelope
		if err := strictUnmarshal(body, &env); err != nil {
			return nil, err
		}
		specs = env.Tasks
	default:
		return nil, errors.New("body must be a JSON array of tasks or {\"tasks\": [...]}")
	}
	if len(specs) == 0 {
		return nil, errors.New("no tasks in submission")
	}
	if len(specs) > maxTasksPerPush {
		return nil, fmt.Errorf("%d tasks exceeds the %d per-request limit", len(specs), maxTasksPerPush)
	}
	for i, ts := range specs {
		if ts.ID < 0 {
			return nil, fmt.Errorf("task %d: negative id %d", i, ts.ID)
		}
		if ts.SleepUS < 0 || ts.Spin < 0 {
			return nil, fmt.Errorf("task %d: negative work parameters", i)
		}
		if ts.SleepUS > maxSleepUS {
			return nil, fmt.Errorf("task %d: sleep_us %d exceeds 60s cap", i, ts.SleepUS)
		}
		if ts.Spin > maxSpin {
			return nil, fmt.Errorf("task %d: spin %d exceeds %d cap", i, ts.Spin, maxSpin)
		}
		if ts.Cost < 0 {
			return nil, fmt.Errorf("task %d: negative cost", i)
		}
	}
	return specs, nil
}

// firstByte returns the first non-whitespace byte of b (0 when none).
func firstByte(b []byte) byte {
	for _, c := range b {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		}
		return c
	}
	return 0
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing data.
func strictUnmarshal(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// NewHandler returns the daemon's full handler stack over s: job creation,
// task streaming, status, result polling, metrics, and health.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "workers": s.Workers()})
	})

	// Prometheus text exposition. The two registries use disjoint name
	// prefixes (service_/cluster_), so the concatenation is itself a valid
	// exposition.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, s.Metrics().RenderProm())
		if c := s.Cluster(); c != nil {
			io.WriteString(w, c.Metrics().RenderProm())
		}
	})

	// Node administration: inspect the cluster's worker registrations and
	// evict a node (its outstanding work fails over to the survivors).
	mux.HandleFunc("GET /api/v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		c := s.Cluster()
		if c == nil {
			writeError(w, http.StatusNotFound, errors.New("cluster disabled (start graspd with -cluster-listen)"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"nodes": c.Nodes(), "wanted": c.NodesWanted()})
	})

	mux.HandleFunc("DELETE /api/v1/nodes/{id}", func(w http.ResponseWriter, r *http.Request) {
		c := s.Cluster()
		if c == nil {
			writeError(w, http.StatusNotFound, errors.New("cluster disabled (start graspd with -cluster-listen)"))
			return
		}
		id := r.PathValue("id")
		if err := c.Evict(id); err != nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("no live node %q", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"evicted": id})
	})

	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			writeBodyError(w, err)
			return
		}
		var req createRequest
		if err := strictUnmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		j, err := s.Submit(req.Name, req.JobSpec)
		if err != nil {
			status := http.StatusInternalServerError // e.g. calibration failed
			switch {
			case errors.Is(err, ErrJobExists):
				status = http.StatusConflict
			case errors.Is(err, ErrInvalid):
				status = http.StatusBadRequest
			case errors.Is(err, ErrNoCluster):
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusCreated, j.Status())
	})

	mux.HandleFunc("DELETE /api/v1/jobs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if _, ok := s.Job(name); !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", name))
			return
		}
		if err := s.Remove(name); err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"removed": name})
	})

	mux.HandleFunc("GET /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		statuses := s.Statuses()
		sort.Slice(statuses, func(i, k int) bool { return statuses[i].Name < statuses[k].Name })
		writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
	})

	mux.HandleFunc("GET /api/v1/jobs/{name}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("name"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("name")))
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})

	mux.HandleFunc("POST /api/v1/jobs/{name}/tasks", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("name"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("name")))
			return
		}
		body, err := readBody(w, r)
		if err != nil {
			writeBodyError(w, err)
			return
		}
		specs, err := decodeTasks(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Push blocks under backpressure: the bounded in-flight window
		// propagates all the way to the HTTP client. Admission control
		// pre-empts that block: an overloaded predictive job sheds the whole
		// batch with 429 + Retry-After instead of stalling the request.
		n, err := j.Push(specs)
		if err != nil {
			if errors.Is(err, ErrOverloaded) {
				secs := int(math.Ceil(s.RetryAfter().Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeError(w, http.StatusTooManyRequests, err)
				return
			}
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"accepted": n})
	})

	mux.HandleFunc("POST /api/v1/jobs/{name}/close", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("name"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("name")))
			return
		}
		if err := j.CloseInput(); err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})

	mux.HandleFunc("GET /api/v1/jobs/{name}/timeline", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("name"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("name")))
			return
		}
		// Same ordering rationale as the results endpoint: state is read
		// before the events, so a "done" response cannot be missing the
		// final completion events.
		state := j.state()
		serveTimeline(w, r, j.Trace(), j.Name(), state)
	})

	// The coordinator's own timeline: cluster-side dispatch/complete events
	// across all jobs, on the coordinator's clock.
	mux.HandleFunc("GET /api/v1/cluster/timeline", func(w http.ResponseWriter, r *http.Request) {
		c := s.Cluster()
		if c == nil {
			writeError(w, http.StatusNotFound, errors.New("cluster disabled (start graspd with -cluster-listen)"))
			return
		}
		serveTimeline(w, r, c.Trace(), "", "")
	})

	mux.HandleFunc("GET /api/v1/jobs/{name}/results", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("name"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("name")))
			return
		}
		after := 0
		if q := r.URL.Query().Get("after"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("after must be a non-negative integer"))
				return
			}
			after = v
		}
		// A poll at the watermark waits for it: until the next result is
		// visible (its ack durable), the lifecycle moves, the job finishes,
		// the service closes, the client goes away or resultsHold passes.
		// Then it answers exactly as a poll that found results at once.
		if changed := j.waitPast(after); changed != nil {
			hold := time.NewTimer(resultsHold)
			select {
			case <-changed:
			case <-j.Done():
			case <-s.closed:
			case <-r.Context().Done():
			case <-hold.C:
			}
			hold.Stop()
		}
		// State is read before results: a "done" here guarantees every
		// result is already appended, so a poller that stops on done
		// cannot miss the tail. The reverse order would race the final
		// completions.
		state := j.state()
		results, next := j.Results(after)
		page := resultsPage{Results: results, Next: next, State: state}
		if page.Results == nil {
			page.Results = []TaskResult{}
		}
		if gap := next - len(results) - after; gap > 0 {
			page.Gap = gap
			s.reg.Counter("service_results_unread_dropped_total").Add(int64(gap))
		}
		writeJSON(w, http.StatusOK, page)
	})

	return mux
}

// readBody slurps a bounded request body through http.MaxBytesReader, so
// an oversized upload is cut off at the transport (the server also closes
// the connection) instead of being buffered and then rejected — job
// creation and task submission are the daemon's hot unauthenticated
// paths, and an unbounded decode there is a one-request memory DoS.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	return body, nil
}

// writeBodyError maps a readBody failure onto its status: 413 for an
// oversized body, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// writeJSON encodes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError reports err as {"error": "..."}.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
