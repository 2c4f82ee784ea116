package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"grasp/bench/spanlog"
)

// client drives one graspd over its public HTTP API. Every call is made
// from this process over at most conns connections; with a tracer set each
// call is wrapped in a span.
type client struct {
	base  string
	hc    *http.Client
	tr    *spanlog.Tracer
	epoch time.Time // zero of every recorded time

	refused atomic.Int64 // POSTs answered 429 and retried
	errored atomic.Int64 // calls that failed outright
}

func newClient(base string, conns int, epoch time.Time, tr *spanlog.Tracer) *client {
	return &client{
		base:  base,
		tr:    tr,
		epoch: epoch,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// now is ns since the client's epoch.
func (c *client) now() int64 { return int64(time.Since(c.epoch)) }

// do performs one request and returns the status and body. n is what the
// span says the call carried.
func (c *client) do(spanName, method, url string, body []byte, n int) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	start := c.now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.Record(0, spanName, start, c.now(), n)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, data, nil
}

// call is do for the daemon's control-plane requests: any status but want
// is an error carrying the server's reply.
func (c *client) call(spanName, method, path string, body []byte, want int) ([]byte, error) {
	status, _, data, err := c.do(spanName, method, c.base+path, body, 0)
	if err != nil {
		return nil, err
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(data))
	}
	return data, nil
}

// healthy reports whether the daemon answers /healthz.
func (c *client) healthy() bool {
	_, err := c.call("service.healthz", http.MethodGet, "/healthz", nil, http.StatusOK)
	return err == nil
}

// createJob creates a job from its JSON spec.
func (c *client) createJob(spec map[string]any) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	_, err = c.call("service.create", http.MethodPost, "/api/v1/jobs", body, http.StatusCreated)
	return err
}

// push POSTs one task batch. A 429 is honoured — wait the advertised
// Retry-After, then try again — and counted as a refused operation.
func (c *client) push(job string, body []byte, n int) error {
	for {
		status, hdr, data, err := c.do("service.push", http.MethodPost, c.base+"/api/v1/jobs/"+job+"/tasks", body, n)
		if err != nil {
			c.errored.Add(1)
			return err
		}
		switch status {
		case http.StatusAccepted:
			return nil
		case http.StatusTooManyRequests:
			c.refused.Add(1)
			secs, _ := strconv.Atoi(hdr.Get("Retry-After"))
			time.Sleep(time.Duration(secs) * time.Second)
		default:
			c.errored.Add(1)
			return fmt.Errorf("push to %s: status %d: %s", job, status, bytes.TrimSpace(data))
		}
	}
}

// taskResult is one completed task as the results endpoint serves it.
type taskResult struct {
	ID     int    `json:"id"`
	Micros int64  `json:"micros"`
	Node   string `json:"node"`
}

// pollReply is one page of the results cursor.
type pollReply struct {
	Results []taskResult `json:"results"`
	Next    int          `json:"next"`
	State   string       `json:"state"`
}

// poll fetches the results after the cursor.
func (c *client) poll(job string, after int) (pollReply, error) {
	var out pollReply
	data, err := c.call("service.poll", http.MethodGet,
		"/api/v1/jobs/"+job+"/results?after="+strconv.Itoa(after), nil, http.StatusOK)
	if err != nil {
		c.errored.Add(1)
		return out, err
	}
	if err := json.Unmarshal(data, &out); err != nil {
		c.errored.Add(1)
		return out, fmt.Errorf("poll %s: %w", job, err)
	}
	return out, nil
}

// closeJob ends the job's input.
func (c *client) closeJob(job string) error {
	_, err := c.call("service.close", http.MethodPost, "/api/v1/jobs/"+job+"/close", nil, http.StatusOK)
	return err
}

// jobStatus is the part of a job's status the benchmark reads.
type jobStatus struct {
	State          string `json:"state"`
	Submitted      int    `json:"submitted"`
	Completed      int    `json:"completed"`
	Breaches       int    `json:"breaches"`
	Recalibrations int    `json:"recalibrations"`
	MaxInFlight    int    `json:"max_in_flight"`
	Lost           int    `json:"lost"`
}

func (c *client) status(job string) (jobStatus, error) {
	var st jobStatus
	data, err := c.call("service.status", http.MethodGet, "/api/v1/jobs/"+job, nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// liveNodes counts the worker nodes the coordinator reports as live.
func (c *client) liveNodes() (int, error) {
	data, err := c.call("cluster.nodes", http.MethodGet, "/api/v1/nodes", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	var reply struct {
		Nodes []struct {
			State string `json:"state"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(data, &reply); err != nil {
		return 0, err
	}
	live := 0
	for _, n := range reply.Nodes {
		if n.State == "live" {
			live++
		}
	}
	return live, nil
}

// scrape fetches a Prometheus text exposition from url (the daemon's
// /metrics or a worker's debug listener) and returns its unlabelled
// samples.
func (c *client) scrape(url string) (map[string]float64, error) {
	status, _, data, err := c.do("metrics.scrape", http.MethodGet, url, nil, 0)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, status)
	}
	return parseProm(string(data))
}
