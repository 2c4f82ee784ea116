// Package alloc is the weighted fair-share allocator behind the service
// layer's elastic worker membership: it partitions a fixed set of platform
// worker slots among the live jobs in proportion to each job's share, and
// publishes the resulting membership deltas so running skeletons grow and
// shrink mid-stream instead of every job assuming it owns the whole
// platform.
//
// The policy is max-min-flavoured weighted fair share with three
// properties the serving layer depends on:
//
//   - work-conserving: every slot is always assigned to some live job — a
//     share is a relative weight, not a cap, so a lone job owns the whole
//     platform and slots freed by a finishing job flow immediately to the
//     jobs still running;
//   - a fairness floor: whenever slots outnumber jobs, every job holds at
//     least one slot regardless of how small its share is, so no stream
//     can be starved outright (when jobs outnumber slots the partition
//     degrades to one slot per job, slots serving several jobs — the
//     pre-allocator status quo, oversubscription on the shared runtime);
//   - minimal movement: a rebalance computes each job's target count and
//     transfers only the difference, so an unaffected job's workers are
//     never churned just because another job arrived.
//
// Rebalances are serialised under the allocator's lock and deltas are
// delivered synchronously from Join/Leave/SetShare, so subscribers see
// changes in a single global order. Callbacks must therefore be quick and
// must never call back into the allocator or block — the service layer
// satisfies this by merging deltas into a per-job pending set flushed
// through a non-blocking control-channel send.
package alloc

import (
	"sort"
	"sync"
)

// jobState is one live job's allocation.
type jobState struct {
	id       string
	share    float64
	assigned []int // sorted worker indices
	notify   func(added, removed []int)
}

// Allocator partitions worker slots among live jobs. Create one with New;
// it is safe for concurrent use.
type Allocator struct {
	mu    sync.Mutex
	slots []int // the platform worker indices being partitioned, sorted
	jobs  map[string]*jobState
	order []string // registration order: the deterministic tiebreak
}

// New builds an allocator over the given platform worker slots.
func New(slots []int) *Allocator {
	sorted := append([]int(nil), slots...)
	sort.Ints(sorted)
	return &Allocator{slots: sorted, jobs: make(map[string]*jobState)}
}

// Join registers a job with the given share (non-positive defaults to 1)
// and returns its initial allocation. Other jobs shrink to make room and
// are notified of their removals before Join returns; the joining job's
// own callback fires only on later rebalances, never for the initial set.
func (a *Allocator) Join(id string, share float64, notify func(added, removed []int)) []int {
	if share <= 0 {
		share = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if j, ok := a.jobs[id]; ok {
		return append([]int(nil), j.assigned...)
	}
	j := &jobState{id: id, share: share, notify: notify}
	a.jobs[id] = j
	a.order = append(a.order, id)
	a.rebalanceLocked(id)
	return append([]int(nil), j.assigned...)
}

// Leave deregisters a job; its slots flow to the remaining jobs, which
// are notified of their additions before Leave returns.
func (a *Allocator) Leave(id string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.jobs[id]; !ok {
		return
	}
	delete(a.jobs, id)
	for i, o := range a.order {
		if o == id {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
	a.rebalanceLocked("")
}

// SetShare changes a live job's share (non-positive defaults to 1) and
// rebalances.
func (a *Allocator) SetShare(id string, share float64) {
	if share <= 0 {
		share = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	j, ok := a.jobs[id]
	if !ok || j.share == share {
		return
	}
	j.share = share
	a.rebalanceLocked("")
}

// rebalanceLocked recomputes every job's target count, transfers the
// minimum number of slots, and notifies every changed job except skip
// (the joining job, whose initial set Join returns instead).
func (a *Allocator) rebalanceLocked(skip string) {
	n, k := len(a.slots), len(a.order)
	if k == 0 {
		return
	}
	targets := a.targetsLocked()

	if n < k {
		// More jobs than slots: the partition degrades to one slot per job,
		// assigned round-robin so slots oversubscribe deterministically.
		for i, id := range a.order {
			a.installLocked(a.jobs[id], []int{a.slots[i%n]}, skip)
		}
		return
	}

	// Free the overflow from over-allocated jobs (a job keeps its
	// longest-held, lowest slots) and hand the freed and unassigned slots
	// to under-allocated jobs in index order.
	assigned := make(map[int]bool, n)
	kept := make(map[string][]int, k)
	for _, id := range a.order {
		var mine []int
		// Oversubscribed layouts (a previous n < k regime) may share slots;
		// drop any slot another job already claimed this round.
		for _, s := range a.jobs[id].assigned {
			if !assigned[s] && len(mine) < targets[id] {
				mine = append(mine, s)
				assigned[s] = true
			}
		}
		kept[id] = mine
	}
	var free []int
	for _, s := range a.slots {
		if !assigned[s] {
			free = append(free, s)
		}
	}
	for _, id := range a.order {
		next := kept[id]
		for len(next) < targets[id] && len(free) > 0 {
			next = append(next, free[0])
			free = free[1:]
		}
		sort.Ints(next)
		a.installLocked(a.jobs[id], next, skip)
	}
}

// targetsLocked apportions the slot count by share: largest-remainder
// rounding (ties broken by registration order), then a correction pass
// that guarantees every job at least one slot while slots last.
func (a *Allocator) targetsLocked() map[string]int {
	n := len(a.slots)
	var totalShare float64
	for _, id := range a.order {
		totalShare += a.jobs[id].share
	}
	type frac struct {
		id   string
		rem  float64
		rank int
	}
	targets := make(map[string]int, len(a.order))
	used := 0
	fracs := make([]frac, 0, len(a.order))
	for rank, id := range a.order {
		exact := a.jobs[id].share / totalShare * float64(n)
		base := int(exact)
		targets[id] = base
		used += base
		fracs = append(fracs, frac{id: id, rem: exact - float64(base), rank: rank})
	}
	sort.SliceStable(fracs, func(i, j int) bool {
		if fracs[i].rem != fracs[j].rem {
			return fracs[i].rem > fracs[j].rem
		}
		return fracs[i].rank < fracs[j].rank
	})
	for i := 0; used < n && i < len(fracs); i++ {
		targets[fracs[i].id]++
		used++
	}
	// Fairness floor: no job starves while slots outnumber jobs. Take from
	// the richest job (latest-registered on ties).
	if n >= len(a.order) {
		for {
			var poorest string
			for _, id := range a.order {
				if targets[id] == 0 {
					poorest = id
					break
				}
			}
			if poorest == "" {
				break
			}
			richest, richCount := "", 1
			for _, id := range a.order {
				if targets[id] >= richCount {
					richest, richCount = id, targets[id]
				}
			}
			targets[richest]--
			targets[poorest]++
		}
	}
	return targets
}

// installLocked replaces a job's assignment, computing and publishing the
// delta unless the job is the one being skipped.
func (a *Allocator) installLocked(j *jobState, next []int, skip string) {
	prev := j.assigned
	j.assigned = next
	if j.id == skip || j.notify == nil {
		return
	}
	was := make(map[int]bool, len(prev))
	for _, s := range prev {
		was[s] = true
	}
	is := make(map[int]bool, len(next))
	for _, s := range next {
		is[s] = true
	}
	var added, removed []int
	for _, s := range next {
		if !was[s] {
			added = append(added, s)
		}
	}
	for _, s := range prev {
		if !is[s] {
			removed = append(removed, s)
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		return
	}
	j.notify(added, removed)
}
