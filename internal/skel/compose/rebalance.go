package compose

import (
	"fmt"
	"slices"
	"time"

	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/engine"
	"grasp/internal/trace"
)

// pressured is how full a stage's input must be to attract idle workers.
const pressured = 0.75

// What the stage graph tells the rebalancer: a worker began an item; it has
// handed one on that it finished executing, in svc, at done; a farm retired
// a crashed worker and its OnFailure waits on reply for the Update to apply;
// a stage's farm has returned, so its pool is free.
type (
	began  struct{ worker int }
	handed struct {
		stage, worker int
		svc, done     time.Duration
	}
	failed struct {
		stage, worker int
		reply         rt.Chan
	}
	returned struct{ stage int }
)

// rebalancer is Options.Migrate: one process beside the stage graph that
// keeps the pool books and moves a worker between stages as membership —
// Update{Remove} on the old stage's farm, Update{Add} on the new one's. It
// acts when told that something happened and blocks on nothing but its
// event queue; retry, drain and close stay each stage farm's own.
type rebalancer struct {
	pf      platform.Platform
	log     *trace.Log
	start   time.Duration
	buf     int       // capacity of a stage's input buffer
	events  rt.Chan   // in: the events above
	control []rt.Chan // out, per stage: its farm's StreamOptions.Control
	pools   [][]int
	open    []bool // per stage: farm not yet returned
	inside  []int  // per stage: items that have reached it and not left it
	busy    map[int]bool
	svc     map[int]time.Duration // worker → its last execution time
	since   map[int]time.Duration // worker → when it last finished or moved
	moves   []Migration
}

func newRebalancer(pf platform.Platform, c rt.Ctx, stages []Stage, nItems, buf int, log *trace.Log) *rebalancer {
	// Nothing may block the rebalancer: a farm empties its control queue at
	// every farmer event, so a few Updates per worker is room to spare.
	room := 4 * pf.Size()
	r := &rebalancer{
		pf: pf, log: log, start: c.Now(), buf: buf, inside: make([]int, len(stages)+1),
		events: pf.Runtime().NewChan("pof.events", room), busy: make(map[int]bool),
		svc: make(map[int]time.Duration), since: make(map[int]time.Duration),
	}
	r.inside[0] = nItems
	for si, st := range stages {
		r.pools = append(r.pools, slices.Clone(st.Pool))
		r.open = append(r.open, true)
		r.control = append(r.control, pf.Runtime().NewChan(fmt.Sprintf("pof.control%d", si), room))
	}
	return r
}

func (r *rebalancer) run(c rt.Ctx) {
	for {
		v, ok := r.events.Recv(c)
		if !ok {
			return
		}
		switch e := v.(type) {
		case began:
			r.busy[e.worker] = true
		case handed:
			r.inside[e.stage]--
			r.inside[e.stage+1]++
			r.busy[e.worker], r.svc[e.worker], r.since[e.worker] = false, e.svc, e.done
		case returned:
			r.open[e.stage] = false
		case failed:
			for si, pool := range r.pools {
				r.pools[si] = slices.DeleteFunc(pool, func(w int) bool { return w == e.worker })
			}
			var u engine.Update
			from := 0
			for si := range r.pools {
				if len(r.pools[si]) > len(r.pools[from]) {
					from = si
				}
			}
			if big := r.pools[from]; len(r.pools[e.stage]) == 0 && len(big) > 1 {
				u = r.move(c, big[len(big)-1], from, e.stage)
			}
			e.reply.Send(c, u)
		}
		// Who is free goes where items wait: a finished stage's pool, and from
		// a pool that can spare it a worker idle — parked for want of input, or
		// held by a full buffer before its hand-off — as long as its last item took.
		for si := range r.pools {
			for _, w := range slices.Clone(r.pools[si]) {
				idle := len(r.pools[si]) > 1 && !r.busy[w] && r.svc[w] > 0 && c.Now()-r.since[w] >= r.svc[w]
				if to := r.fullest(si); to >= 0 && (idle || !r.open[si]) {
					r.control[to].TrySend(c, r.move(c, w, si, to))
				}
			}
		}
	}
}

// fullest returns the open stage other than not under the most pressure —
// the items waiting at its door over what its input buffer holds, at most 1
// — or −1 if none is pressured. A tie goes downstream: a stage that cannot
// keep up fills every buffer before its own, so the last full one is it.
func (r *rebalancer) fullest(not int) int {
	best, bestP := -1, pressured
	for si, pool := range r.pools {
		p := min(float64(r.inside[si]-len(pool))/float64(r.buf), 1)
		if si != not && r.open[si] && p >= bestP {
			best, bestP = si, p
		}
	}
	return best
}

// move books worker w from one stage to another, tells the old farm to stop
// feeding it and returns the Update that admits it to the new one.
func (r *rebalancer) move(c rt.Ctx, w, from, to int) engine.Update {
	r.pools[from] = slices.DeleteFunc(r.pools[from], func(x int) bool { return x == w })
	r.pools[to] = append(r.pools[to], w)
	r.since[w] = c.Now()
	if r.open[from] {
		r.control[from].TrySend(c, engine.Update{Remove: []int{w}})
	}
	r.moves = append(r.moves, Migration{At: c.Now() - r.start, Worker: w, From: from, To: to})
	if r.log != nil {
		r.log.Append(trace.Event{
			At: c.Now(), Kind: trace.KindAdapt, Node: r.pf.WorkerName(w),
			Msg: fmt.Sprintf("pool member %s migrates stage %d→%d", r.pf.WorkerName(w), from, to),
		})
	}
	return engine.Update{Add: []engine.Member{{Worker: w}}}
}
