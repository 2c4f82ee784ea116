package service

// The per-job timeline endpoint: the live read side of the bounded trace
// every job carries. One GET returns the job's recent events (cursor-
// paged exactly like the results endpoint), its phase spans, and a
// throughput series — the engine's dispatch/complete/threshold/
// recalibrate events and the service's calibrate/warmup/stream brackets,
// all on the local runtime's clock. ?format=csv streams the raw retained
// events for offline analysis with the same columns the experiment
// harness writes.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"grasp/internal/trace"
)

// timelineEvent is one trace event in wire form, tagged with its absolute
// sequence number so pollers can resume from `next`.
type timelineEvent struct {
	Seq int64 `json:"seq"`
	trace.Event
}

// timelinePhase is one phase span in wire form (EndNS -1 = still open).
type timelinePhase struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// timelineBucket is one throughput interval in wire form.
type timelineBucket struct {
	StartNS     int64 `json:"start_ns"`
	Completions int   `json:"completions"`
}

// timelineResponse is the GET .../timeline wire form.
type timelineResponse struct {
	Job        string           `json:"job,omitempty"`
	State      string           `json:"state,omitempty"`
	Events     []timelineEvent  `json:"events"`
	Next       int64            `json:"next"`
	Dropped    int64            `json:"dropped"`
	Total      int64            `json:"total"`
	Phases     []timelinePhase  `json:"phases,omitempty"`
	Throughput []timelineBucket `json:"throughput,omitempty"`
}

// defaultBucketMS is the throughput bucket width when ?bucket_ms is unset.
const defaultBucketMS = 100

// buildTimeline reduces a trace log into the wire response: the events at
// sequence numbers ≥ after (clamped by the ring's retention), the phase
// spans, and completion throughput from the oldest retained event to the
// newest, in at most trace.MaxBuckets buckets however old the log is.
func buildTimeline(log *trace.Log, after int64, bucket time.Duration) timelineResponse {
	events, next := log.Since(after)
	resp := timelineResponse{
		Events:  make([]timelineEvent, len(events)),
		Next:    next,
		Dropped: log.Dropped(),
		Total:   log.Total(),
	}
	for i, e := range events {
		resp.Events[i] = timelineEvent{Seq: next - int64(len(events)-i), Event: e}
	}
	for _, ph := range log.Phases() {
		end := int64(-1)
		if ph.End >= 0 {
			end = int64(ph.End)
		}
		resp.Phases = append(resp.Phases, timelinePhase{
			Name: ph.Name, StartNS: int64(ph.Start), EndNS: end,
		})
	}
	if last, ok := log.Last(); ok {
		for _, b := range log.Throughput(bucket, last.At) {
			resp.Throughput = append(resp.Throughput, timelineBucket{
				StartNS: int64(b.Start), Completions: b.Completions,
			})
		}
	}
	return resp
}

// timelineParams parses the shared ?after / ?bucket_ms query parameters.
func timelineParams(r *http.Request) (after int64, bucket time.Duration, err error) {
	bucket = defaultBucketMS * time.Millisecond
	if q := r.URL.Query().Get("after"); q != "" {
		v, perr := strconv.ParseInt(q, 10, 64)
		if perr != nil || v < 0 {
			return 0, 0, fmt.Errorf("after must be a non-negative integer")
		}
		after = v
	}
	if q := r.URL.Query().Get("bucket_ms"); q != "" {
		v, perr := strconv.Atoi(q)
		if perr != nil || v <= 0 {
			return 0, 0, fmt.Errorf("bucket_ms must be a positive integer")
		}
		bucket = time.Duration(v) * time.Millisecond
	}
	return after, bucket, nil
}

// serveTimeline writes one trace log as JSON or CSV (?format=csv).
func serveTimeline(w http.ResponseWriter, r *http.Request, log *trace.Log, job, state string) {
	switch r.URL.Query().Get("format") {
	case "", "json":
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		log.WriteCSV(w)
		return
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (json, csv)", r.URL.Query().Get("format")))
		return
	}
	after, bucket, err := timelineParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := buildTimeline(log, after, bucket)
	resp.Job, resp.State = job, state
	writeJSON(w, http.StatusOK, resp)
}
