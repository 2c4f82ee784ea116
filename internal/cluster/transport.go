package cluster

// Transport abstracts the coordinator/worker wire so the worker runtime —
// and any future client of the protocol — is written once against the
// five verbs and bound to a concrete encoding at register time. Two
// bindings exist: the original JSON-over-HTTP one (NewJSONTransport) and
// the length-prefixed binary codec over persistent connections
// (NewBinaryTransport). Both speak to the same coordinator port: the
// server sniffs the first byte of each connection (see server.go).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Transport is one client-side binding of the coordinator protocol. A
// Transport is safe for concurrent use by a worker's executors,
// heartbeat, and result flusher. Lease takes a scratch slice the decoded
// batch is appended onto (pass a reused buffer's [:0] to keep the
// steady-state dispatch path allocation-free; nil is fine too); the
// results its request carries are encoded before it returns and never
// retained, so the caller may reuse their backing array.
type Transport interface {
	Name() string
	Register(req RegisterRequest) (RegisterResponse, error)
	Lease(req LeaseRequest, scratch []WireTask) ([]WireTask, error)
	Results(req ResultsRequest) error
	Heartbeat(req HeartbeatRequest) error
	Leave(req LeaveRequest) error
	Close()
}

// NewTransport builds the named binding against a coordinator base URL
// ("http://host:port"). TransportAuto is a worker's offer, resolved when
// the coordinator picks at registration, not here; callers pass the pick.
func NewTransport(name, baseURL string, client *http.Client) (Transport, error) {
	switch name {
	case TransportJSON:
		return NewJSONTransport(baseURL, client), nil
	case TransportBinary:
		return NewBinaryTransport(baseURL)
	}
	return nil, fmt.Errorf("cluster: unknown transport %q", name)
}

// --- JSON binding ---

// jsonTransport is the original binding: one HTTP POST with a JSON body
// per verb. Connection reuse comes from the HTTP client's keep-alive
// pool, which DefaultWorkerClient sizes for a worker's concurrency.
type jsonTransport struct {
	base   string
	client *http.Client
}

// NewJSONTransport returns the JSON/HTTP binding. A nil client gets
// DefaultWorkerClient.
func NewJSONTransport(baseURL string, client *http.Client) Transport {
	if client == nil {
		client = DefaultWorkerClient()
	}
	return &jsonTransport{base: baseURL, client: client}
}

// DefaultWorkerClient returns the HTTP client the worker runtime uses for
// the JSON binding: keep-alives on and an idle pool deep enough that
// every executor, the heartbeat loop, and the result flusher hold a
// persistent connection instead of paying per-request TCP (and ephemeral
// port) setup. The lease long-poll bounds response latency, so the
// overall timeout stays generous.
func DefaultWorkerClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

func (t *jsonTransport) Name() string { return TransportJSON }

func (t *jsonTransport) Register(req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := t.post("/cluster/v1/register", req, &resp)
	return resp, err
}

func (t *jsonTransport) Lease(req LeaseRequest, scratch []WireTask) ([]WireTask, error) {
	var resp LeaseResponse
	if err := t.post("/cluster/v1/lease", req, &resp); err != nil {
		return scratch, err
	}
	return append(scratch, resp.Tasks...), nil
}

func (t *jsonTransport) Results(req ResultsRequest) error {
	return t.post("/cluster/v1/results", req, nil)
}

func (t *jsonTransport) Heartbeat(req HeartbeatRequest) error {
	return t.post("/cluster/v1/heartbeat", req, nil)
}

func (t *jsonTransport) Leave(req LeaveRequest) error {
	return t.post("/cluster/v1/leave", req, nil)
}

func (t *jsonTransport) Close() { t.client.CloseIdleConnections() }

// post sends req as JSON and decodes into out when non-nil. HTTP 410
// surfaces as ErrGone.
func (t *jsonTransport) post(path string, req, out any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		return err
	}
	resp, err := t.client.Post(t.base+path, "application/json", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		return ErrGone
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("cluster: HTTP %d: %s", resp.StatusCode, e.Error)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// --- binary binding ---

// binConn is one persistent connection with its frame scratch buffer; a
// connection carries one request/response exchange at a time.
type binConn struct {
	c   net.Conn
	buf []byte
}

// binaryTransport speaks the frame codec over a pool of persistent TCP
// connections: a verb leases a connection (dialing when the pool is dry),
// writes one request frame, reads one response frame, and returns the
// connection for reuse. An I/O error closes the connection; the caller's
// retry discipline (the worker loops) handles redelivery exactly as it
// does for the JSON binding.
type binaryTransport struct {
	addr string

	mu     sync.Mutex
	idle   []*binConn
	closed bool
}

// NewBinaryTransport returns the binary binding against a coordinator
// base URL or bare host:port.
func NewBinaryTransport(baseURL string) (Transport, error) {
	addr := baseURL
	if strings.Contains(addr, "://") {
		u, err := url.Parse(addr)
		if err != nil {
			return nil, fmt.Errorf("cluster: binary transport address: %w", err)
		}
		addr = u.Host
	}
	if addr == "" {
		return nil, fmt.Errorf("cluster: binary transport needs a host:port, got %q", baseURL)
	}
	return &binaryTransport{addr: addr}, nil
}

func (t *binaryTransport) Name() string { return TransportBinary }

// get leases an idle connection or dials a fresh one.
func (t *binaryTransport) get() (*binConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("cluster: binary transport closed")
	}
	if n := len(t.idle); n > 0 {
		bc := t.idle[n-1]
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		return bc, nil
	}
	t.mu.Unlock()
	c, err := net.DialTimeout("tcp", t.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &binConn{c: c, buf: make([]byte, 0, 4096)}, nil
}

// put returns a healthy connection to the idle pool.
func (t *binaryTransport) put(bc *binConn) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		bc.c.Close()
		return
	}
	t.idle = append(t.idle, bc)
	t.mu.Unlock()
}

func (t *binaryTransport) Close() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.closed = true
	t.mu.Unlock()
	for _, bc := range idle {
		bc.c.Close()
	}
}

// exchange performs one request/response round trip. encode appends the
// request frame onto the connection's scratch; the response payload stays
// valid only until the connection's next exchange, so handle decodes
// before the connection is released.
func (t *binaryTransport) exchange(deadline time.Duration, encode func([]byte) []byte, handle func(typ byte, payload []byte) error) error {
	bc, err := t.get()
	if err != nil {
		return err
	}
	bc.buf = finishFrame(encode(bc.buf[:0]))
	if deadline > 0 {
		bc.c.SetDeadline(time.Now().Add(deadline))
	} else {
		bc.c.SetDeadline(time.Time{})
	}
	if _, err := bc.c.Write(bc.buf); err != nil {
		bc.c.Close()
		return err
	}
	typ, payload, buf, err := readFrame(bc.c, bc.buf[:0])
	bc.buf = buf
	if err != nil {
		bc.c.Close()
		return err
	}
	if typ == msgError {
		code, msg, derr := decodeError(payload)
		bc.c.Close() // error exchanges are rare; a fresh conn is cheaper than split-brain state
		if derr != nil {
			return derr
		}
		return wireError(code, msg)
	}
	err = handle(typ, payload)
	if err != nil {
		bc.c.Close()
		return err
	}
	t.put(bc)
	return nil
}

// rtt is the deadline slack added to a verb's intrinsic wait.
const rtt = 10 * time.Second

func (t *binaryTransport) Register(req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := t.exchange(rtt, func(dst []byte) []byte {
		return appendRegisterRequest(beginFrame(dst, msgRegister), req)
	}, func(typ byte, payload []byte) error {
		if typ != msgRegisterResp {
			return errBadFrame
		}
		return decodeRegisterResponse(payload, &resp)
	})
	return resp, err
}

func (t *binaryTransport) Lease(req LeaseRequest, scratch []WireTask) ([]WireTask, error) {
	wait := time.Duration(req.WaitMS) * time.Millisecond
	out := scratch
	err := t.exchange(wait+rtt, func(dst []byte) []byte {
		return appendLeaseRequest(beginFrame(dst, msgLease), req)
	}, func(typ byte, payload []byte) error {
		if typ != msgLeaseResp {
			return errBadFrame
		}
		var derr error
		out, derr = decodeLeaseResponse(payload, out)
		return derr
	})
	return out, err
}

func (t *binaryTransport) Results(req ResultsRequest) error {
	return t.exchange(rtt, func(dst []byte) []byte {
		return appendResultsRequest(beginFrame(dst, msgResults), req)
	}, expectOK)
}

func (t *binaryTransport) Heartbeat(req HeartbeatRequest) error {
	return t.exchange(rtt, func(dst []byte) []byte {
		return appendIDGen(beginFrame(dst, msgHeartbeat), req.ID, req.Gen)
	}, expectOK)
}

func (t *binaryTransport) Leave(req LeaveRequest) error {
	return t.exchange(rtt, func(dst []byte) []byte {
		return appendIDGen(beginFrame(dst, msgLeave), req.ID, req.Gen)
	}, expectOK)
}

// expectOK accepts the empty OK response.
func expectOK(typ byte, _ []byte) error {
	if typ != msgOK {
		return errBadFrame
	}
	return nil
}
