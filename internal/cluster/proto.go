package cluster

// Wire types for the coordinator/worker protocol: the JSON binding serves
// them under /cluster/v1/, the binary binding frames them (codec.go). The
// protocol is deliberately small: a worker registers
// (announcing its identity, capacity, and benchmark-derived speed), pulls
// task batches with long-poll leases — each request carrying the previous
// lease's results — posts result batches when a lease runs long, and
// heartbeats between leases, all over the one binding it was started with.
// Every worker-originated request carries the (id, gen) pair the
// coordinator issued at registration; a stale generation gets HTTP 410 (a
// 410 error frame on the binary binding) so zombies re-register instead of
// corrupting a newer incarnation's bookkeeping.

// Work is the wire form of one task's computation: sleep models IO-bound
// work, spin models CPU-bound work (both may be combined), and Cost is the
// declared operation count carried for accounting. It is all a remote node
// needs — closures never cross the process boundary.
type Work struct {
	Cost    float64 `json:"cost,omitempty"`
	SleepUS int64   `json:"sleep_us,omitempty"`
	Spin    int64   `json:"spin,omitempty"`
}

// WorkCarrier lets task payloads travel to remote nodes: a platform.Task
// whose Data implements it is encoded with ClusterWork's result. The
// service layer's TaskSpec implements this.
type WorkCarrier interface {
	ClusterWork() Work
}

// Transport names. The binding is the worker's choice, made when it
// starts (WorkerConfig.Transport) and kept for its whole life; the
// coordinator serves both on one port, so a fleet may mix them.
const (
	// TransportJSON is the original binding: JSON request/response bodies
	// over HTTP POST, one round trip per verb.
	TransportJSON = "json"
	// TransportBinary is the length-prefixed binary codec (see codec.go)
	// over persistent connections multiplexed onto the same cluster port.
	TransportBinary = "binary"
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	ID string `json:"id"`
	// Capacity is how many tasks the worker executes concurrently.
	Capacity int `json:"capacity"`
	// SpeedOPS is the worker's benchmark-derived speed in spin
	// iterations/second — the register-time calibration sample that feeds a
	// cluster job's initial dispatch weights.
	SpeedOPS float64 `json:"speed_ops"`
	// Transports names the binding the request came over; the coordinator
	// only logs it. It goes once the benchmark ladder stops setting it
	// (ROADMAP item 2(a)).
	Transports []string `json:"transports,omitempty"`
}

// RegisterResponse issues the worker's generation token.
type RegisterResponse struct {
	Gen int64 `json:"gen"`
	// HeartbeatMS advises the worker how often to heartbeat (a third of the
	// coordinator's dead-after bound).
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// LeaseRequest pulls up to Max queued tasks, long-polling up to WaitMS
// when the queue is empty. Results carries the finished executions of the
// requester's previous lease: the coordinator applies them — exactly as a
// results post would — before it leases or long-polls, so a chunk costs one
// round trip, not a lease plus its results posts. A request without them is
// the pre-existing layout on both bindings.
type LeaseRequest struct {
	ID      string       `json:"id"`
	Gen     int64        `json:"gen"`
	Max     int          `json:"max"`
	WaitMS  int64        `json:"wait_ms"`
	Results []WireResult `json:"results,omitempty"`
}

// WireTask is one leased execution: Dispatch identifies this delivery
// (redeliveries of the same task get fresh dispatch ids), Task is the
// submitter's task id.
type WireTask struct {
	Dispatch int64 `json:"dispatch"`
	Task     int   `json:"task"`
	Work
}

// LeaseResponse carries the leased batch (possibly empty after a long-poll
// timeout).
type LeaseResponse struct {
	Tasks []WireTask `json:"tasks"`
}

// WireResult reports one finished execution.
type WireResult struct {
	Dispatch int64 `json:"dispatch"`
	Task     int   `json:"task"`
	// Micros is the node-measured execution time: the node-speed part of
	// the Result.Time the detector is fed (see Pool), and the Dur of the
	// coordinator trace's complete events.
	Micros int64 `json:"micros"`
}

// ResultsRequest posts a batch of finished executions.
type ResultsRequest struct {
	ID      string       `json:"id"`
	Gen     int64        `json:"gen"`
	Results []WireResult `json:"results"`
}

// HeartbeatRequest keeps a registration alive between leases.
type HeartbeatRequest struct {
	ID  string `json:"id"`
	Gen int64  `json:"gen"`
}

// LeaveRequest announces a graceful shutdown: outstanding work is
// reassigned immediately instead of waiting for the dead-after bound.
type LeaveRequest struct {
	ID  string `json:"id"`
	Gen int64  `json:"gen"`
}

// NodeInfo is the admin view of one registered node (the /nodes listing).
type NodeInfo struct {
	ID       string  `json:"id"`
	Gen      int64   `json:"gen"`
	State    string  `json:"state"`
	Capacity int     `json:"capacity"`
	SpeedOPS float64 `json:"speed_ops"`
	Queued   int     `json:"queued"`
	InFlight int     `json:"in_flight"`
	// Completed counts executions whose results were accepted; Failed
	// counts executions lost to death/eviction; Deduped counts late or
	// duplicate results dropped by delivery dedup.
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Deduped    int64 `json:"deduped"`
	LastSeenMS int64 `json:"last_seen_ms"`
}

// EncodeWork maps a platform task onto its wire form: an explicit Work
// payload or WorkCarrier when the producer attached one, else the
// calibration-probe convention that Cost is a spin iteration count.
func EncodeWork(cost float64, data any) Work {
	switch d := data.(type) {
	case Work:
		return d
	case WorkCarrier:
		return d.ClusterWork()
	}
	return Work{Cost: cost, Spin: int64(cost)}
}
