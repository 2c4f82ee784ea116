// Package grid models a non-dedicated, heterogeneous computational grid on
// top of the vsim kernel. It substitutes for the physical grid of the paper:
// nodes with differing base speeds and time-varying external load, links
// with latency and finite bandwidth, and optional sites whose members share
// a gateway link.
//
// The central fidelity property is exact integration of work over the
// external-load trace: a task that is mid-flight when pressure arrives is
// stretched by exactly the remaining fraction, so mid-run adaptation (the
// paper's execution phase) is observable and meaningful.
package grid

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"grasp/internal/loadgen"
	"grasp/internal/vsim"
)

// NodeID identifies a node within a Grid (dense index, 0-based).
type NodeID int

// String renders the conventional node name.
func (id NodeID) String() string { return fmt.Sprintf("n%d", int(id)) }

// NodeSpec describes a node to be built into a grid.
type NodeSpec struct {
	Name      string        // optional; defaults to "n<i>"
	BaseSpeed float64       // operations per second at zero external load (> 0)
	Load      loadgen.Trace // external pressure; nil means always idle
	Site      int           // site index; nodes of a site share a gateway link
	// FailAt, when positive, crashes the node at that virtual time: work in
	// flight is lost (reported as ErrNodeFailed when the failure instant is
	// reached) and all later work fails immediately. Grid nodes leave and
	// fail; adaptive skeletons must survive it.
	FailAt time.Duration
}

// ErrNodeFailed is returned by Compute/Execute when the target node has
// crashed (NodeSpec.FailAt).
var ErrNodeFailed = errors.New("grid: node failed")

// LinkSpec describes the master↔node link of a node, or a site gateway.
type LinkSpec struct {
	Latency   time.Duration // one-way latency per transfer
	Bandwidth float64       // bytes per second (> 0)
	Util      loadgen.Trace // external bandwidth utilisation; nil means idle
}

// DefaultLink is used when a spec leaves the link zero-valued: a fast LAN.
var DefaultLink = LinkSpec{Latency: 200 * time.Microsecond, Bandwidth: 100e6}

// Node is a grid processing element.
type Node struct {
	ID        NodeID
	Name      string
	BaseSpeed float64
	SiteIndex int
	FailAt    time.Duration // zero means the node never fails

	load loadgen.Trace
	cpu  *vsim.Resource
	env  *vsim.Env

	// accounting
	busy      time.Duration // virtual time spent computing
	tasksDone int
}

// FailedAt reports whether the node has crashed by time t.
func (n *Node) FailedAt(t time.Duration) bool {
	return n.FailAt > 0 && t >= n.FailAt
}

// LoadAt returns the true external load of the node at time t.
// Monitoring layers add sensor noise on top of this ground truth.
func (n *Node) LoadAt(t time.Duration) float64 {
	if n.load == nil {
		return 0
	}
	return n.load.At(t)
}

// BusyTime returns the cumulative virtual time this node spent computing.
func (n *Node) BusyTime() time.Duration { return n.busy }

// TasksDone returns the number of Compute calls completed on this node.
func (n *Node) TasksDone() int { return n.tasksDone }

// Compute executes cost operations on the node, blocking p for the exact
// virtual time implied by the base speed and the load trace. Concurrent
// Compute calls on one node serialise FIFO (a node has one CPU).
//
// If the node crashes (FailAt) before the work completes, Compute blocks
// until the failure instant and returns ErrNodeFailed: the caller observes
// the loss exactly when a live master would (the connection drops at the
// crash). Work submitted after the crash fails immediately.
func (n *Node) Compute(p *vsim.Proc, cost float64) (time.Duration, error) {
	if cost < 0 {
		cost = 0
	}
	if n.FailedAt(n.env.Now()) {
		return 0, ErrNodeFailed
	}
	n.cpu.Acquire(p)
	start := n.env.Now()
	if n.FailedAt(start) {
		n.cpu.Release(p)
		return n.env.Now() - start, ErrNodeFailed
	}
	d := integrate(n.load, n.BaseSpeed, cost, start)
	if n.FailAt > 0 && start+d >= n.FailAt {
		// The node dies mid-task: the caller learns at the crash instant.
		p.Sleep(n.FailAt - start)
		n.cpu.Release(p)
		return n.env.Now() - start, ErrNodeFailed
	}
	p.Sleep(d)
	n.cpu.Release(p)
	n.busy += n.env.Now() - start
	n.tasksDone++
	return n.env.Now() - start, nil
}

// Link is a communication channel with latency, finite bandwidth, FIFO
// contention, and optional external utilisation.
type Link struct {
	Name      string
	Latency   time.Duration
	Bandwidth float64

	util loadgen.Trace
	res  *vsim.Resource
	env  *vsim.Env

	bytesMoved float64
}

// UtilAt returns the true external bandwidth utilisation at time t.
func (l *Link) UtilAt(t time.Duration) float64 {
	if l.util == nil {
		return 0
	}
	return l.util.At(t)
}

// BytesMoved returns the cumulative bytes transferred over this link.
func (l *Link) BytesMoved() float64 { return l.bytesMoved }

// Transfer moves the given number of bytes across the link, blocking p for
// latency plus the bandwidth-integrated transfer time. Transfers on one
// link serialise FIFO.
func (l *Link) Transfer(p *vsim.Proc, bytes float64) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	l.res.Acquire(p)
	start := l.env.Now()
	if l.Latency > 0 {
		p.Sleep(l.Latency)
	}
	if bytes > 0 {
		d := integrate(l.util, l.Bandwidth, bytes, l.env.Now())
		p.Sleep(d)
	}
	l.res.Release(p)
	l.bytesMoved += bytes
	return l.env.Now() - start
}

// integrate returns the virtual time needed to complete `amount` units of
// work starting at `start`, where instantaneous rate is base·(1−trace(t)).
// The trace is piecewise constant, so the integral is exact.
func integrate(tr loadgen.Trace, base, amount float64, start time.Duration) time.Duration {
	if amount <= 0 {
		return 0
	}
	if base <= 0 {
		panic("grid: non-positive base rate")
	}
	remaining := amount
	t := start
	var total time.Duration
	for {
		load := 0.0
		if tr != nil {
			load = tr.At(t)
		}
		rate := base * (1 - load)
		if rate <= 0 {
			// Defensive: loadgen clamps below 1, so this cannot happen with
			// well-formed traces.
			rate = base * (1 - loadgen.MaxLoad)
		}
		var next time.Duration
		ok := false
		if tr != nil {
			next, ok = tr.NextChange(t)
		}
		if !ok {
			total += secondsToDuration(remaining / rate)
			return total
		}
		window := next - t
		capacity := rate * window.Seconds()
		if capacity >= remaining {
			total += secondsToDuration(remaining / rate)
			return total
		}
		remaining -= capacity
		total += window
		t = next
	}
}

// secondsToDuration converts fractional seconds to a duration, rounding up
// to 1ns so positive work always takes positive time.
func secondsToDuration(s float64) time.Duration {
	d := time.Duration(math.Ceil(s * float64(time.Second)))
	if d < time.Nanosecond && s > 0 {
		d = time.Nanosecond
	}
	return d
}

// Grid is a master plus a set of worker nodes reachable over per-node links,
// optionally via shared site gateways (two-hop transfers).
type Grid struct {
	env      *vsim.Env
	nodes    []*Node
	links    []*Link // per-node master↔node link
	gateways map[int]*Link
}

// Config assembles a grid.
type Config struct {
	Nodes []NodeSpec
	// Links is parallel to Nodes; nil or zero-valued entries fall back to
	// DefaultLink.
	Links []LinkSpec
	// Gateways optionally maps a site index to a shared gateway link spec;
	// transfers to that site's nodes pass through the gateway first.
	Gateways map[int]LinkSpec
}

// New builds a grid in the given simulation environment.
func New(env *vsim.Env, cfg Config) (*Grid, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("grid: no nodes")
	}
	if cfg.Links != nil && len(cfg.Links) != len(cfg.Nodes) {
		return nil, fmt.Errorf("grid: %d link specs for %d nodes", len(cfg.Links), len(cfg.Nodes))
	}
	g := &Grid{env: env, gateways: make(map[int]*Link)}
	for i, ns := range cfg.Nodes {
		if ns.BaseSpeed <= 0 {
			return nil, fmt.Errorf("grid: node %d has non-positive base speed %v", i, ns.BaseSpeed)
		}
		name := ns.Name
		if name == "" {
			name = NodeID(i).String()
		}
		n := &Node{
			ID:        NodeID(i),
			Name:      name,
			BaseSpeed: ns.BaseSpeed,
			SiteIndex: ns.Site,
			FailAt:    ns.FailAt,
			load:      ns.Load,
			cpu:       vsim.NewResource(env, "cpu:"+name, 1),
			env:       env,
		}
		g.nodes = append(g.nodes, n)

		ls := DefaultLink
		if cfg.Links != nil && (cfg.Links[i].Bandwidth > 0 || cfg.Links[i].Latency > 0) {
			ls = cfg.Links[i]
		}
		if ls.Bandwidth <= 0 {
			ls.Bandwidth = DefaultLink.Bandwidth
		}
		g.links = append(g.links, &Link{
			Name:      "link:" + name,
			Latency:   ls.Latency,
			Bandwidth: ls.Bandwidth,
			util:      ls.Util,
			res:       vsim.NewResource(env, "link:"+name, 1),
			env:       env,
		})
	}
	for site, ls := range cfg.Gateways {
		if ls.Bandwidth <= 0 {
			ls.Bandwidth = DefaultLink.Bandwidth
		}
		name := fmt.Sprintf("gw:site%d", site)
		g.gateways[site] = &Link{
			Name:      name,
			Latency:   ls.Latency,
			Bandwidth: ls.Bandwidth,
			util:      ls.Util,
			res:       vsim.NewResource(env, name, 1),
			env:       env,
		}
	}
	return g, nil
}

// Env returns the simulation environment the grid lives in.
func (g *Grid) Env() *vsim.Env { return g.env }

// Size returns the number of worker nodes.
func (g *Grid) Size() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Grid) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		panic(fmt.Sprintf("grid: no node %v (size %d)", id, len(g.nodes)))
	}
	return g.nodes[id]
}

// Nodes returns all nodes in ID order.
func (g *Grid) Nodes() []*Node { return append([]*Node(nil), g.nodes...) }

// Link returns the master↔node link for the given node.
func (g *Grid) Link(id NodeID) *Link {
	if int(id) < 0 || int(id) >= len(g.links) {
		panic(fmt.Sprintf("grid: no link for %v", id))
	}
	return g.links[id]
}

// Gateway returns the shared gateway link of the node's site, or nil.
func (g *Grid) Gateway(id NodeID) *Link {
	return g.gateways[g.Node(id).SiteIndex]
}

// SendTo moves bytes from the master to node id (gateway hop first, if any),
// blocking p for the full transfer time.
func (g *Grid) SendTo(p *vsim.Proc, id NodeID, bytes float64) time.Duration {
	start := g.env.Now()
	if gw := g.Gateway(id); gw != nil {
		gw.Transfer(p, bytes)
	}
	g.Link(id).Transfer(p, bytes)
	return g.env.Now() - start
}

// RecvFrom moves bytes from node id back to the master (node link first,
// then gateway), blocking p for the full transfer time.
func (g *Grid) RecvFrom(p *vsim.Proc, id NodeID, bytes float64) time.Duration {
	start := g.env.Now()
	g.Link(id).Transfer(p, bytes)
	if gw := g.Gateway(id); gw != nil {
		gw.Transfer(p, bytes)
	}
	return g.env.Now() - start
}

// HeterogeneousSpecs generates n node specs with log-normally distributed
// base speeds of the given mean and coefficient of variation, deterministic
// in seed. cv = 0 yields identical speeds.
func HeterogeneousSpecs(seed int64, n int, meanSpeed, cv float64) []NodeSpec {
	if n <= 0 {
		return nil
	}
	if meanSpeed <= 0 {
		meanSpeed = 1
	}
	specs := make([]NodeSpec, n)
	if cv <= 0 {
		for i := range specs {
			specs[i] = NodeSpec{BaseSpeed: meanSpeed}
		}
		return specs
	}
	rng := rand.New(rand.NewSource(seed))
	// Log-normal with E[X]=meanSpeed, CV=cv: sigma² = ln(1+cv²),
	// mu = ln(mean) − sigma²/2.
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(meanSpeed) - sigma2/2
	sigma := math.Sqrt(sigma2)
	for i := range specs {
		speed := math.Exp(mu + sigma*rng.NormFloat64())
		// Floor at 5% of the mean so no node is degenerate.
		if speed < 0.05*meanSpeed {
			speed = 0.05 * meanSpeed
		}
		specs[i] = NodeSpec{BaseSpeed: speed}
	}
	return specs
}
