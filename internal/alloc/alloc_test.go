package alloc

import (
	"reflect"
	"sort"
	"testing"
)

// Allocation returns a job's current slots (nil for unknown jobs).
func (a *Allocator) Allocation(id string) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	j, ok := a.jobs[id]
	if !ok {
		return nil
	}
	return append([]int(nil), j.assigned...)
}

func slots(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestLoneJobOwnsEverySlot(t *testing.T) {
	a := New(slots(8))
	got := a.Join("a", 1, nil)
	if !reflect.DeepEqual(got, slots(8)) {
		t.Fatalf("lone job allocation = %v, want all 8 slots", got)
	}
}

func TestSharesPartitionProportionally(t *testing.T) {
	a := New(slots(8))
	a.Join("light", 1, nil)
	heavy := a.Join("heavy", 3, nil)
	light := a.Allocation("light")
	if len(light) != 2 || len(heavy) != 6 {
		t.Fatalf("split = %d:%d, want 2:6", len(light), len(heavy))
	}
	// The partition is disjoint and covers every slot (work-conserving).
	seen := map[int]bool{}
	for _, s := range append(light, heavy...) {
		if seen[s] {
			t.Fatalf("slot %d assigned twice", s)
		}
		seen[s] = true
	}
	if len(seen) != 8 {
		t.Fatalf("%d slots assigned, want 8", len(seen))
	}
}

func TestDeltasOnJoinAndLeave(t *testing.T) {
	a := New(slots(8))
	var added, removed []int
	a.Join("light", 1, func(add, rem []int) {
		added = append(added, add...)
		removed = append(removed, rem...)
	})
	a.Join("heavy", 3, nil)
	if len(removed) != 6 || len(added) != 0 {
		t.Fatalf("after heavy joins: light deltas add=%v remove=%v, want 6 removals", added, removed)
	}
	removed = removed[:0]
	a.Leave("heavy")
	sort.Ints(added)
	if len(added) != 6 || len(removed) != 0 {
		t.Fatalf("after heavy leaves: light deltas add=%v remove=%v, want 6 additions", added, removed)
	}
	if got := a.Allocation("light"); !reflect.DeepEqual(got, slots(8)) {
		t.Fatalf("light allocation after leave = %v, want all slots", got)
	}
}

func TestMinimalMovement(t *testing.T) {
	a := New(slots(8))
	a.Join("a", 1, nil)
	a.Join("b", 1, nil)
	before := a.Allocation("a")
	moved := 0
	a.jobs["a"].notify = func(add, rem []int) { moved += len(add) + len(rem) }
	a.Join("c", 2, nil) // targets become a:2 b:2 c:4
	after := a.Allocation("a")
	if len(after) != 2 {
		t.Fatalf("a holds %d slots, want 2", len(after))
	}
	// a shrank 4→2: exactly 2 removals, no gratuitous churn.
	if moved != 2 {
		t.Fatalf("a saw %d slot movements, want 2 (before %v, after %v)", moved, before, after)
	}
	for _, s := range after {
		found := false
		for _, p := range before {
			if p == s {
				found = true
			}
		}
		if !found {
			t.Fatalf("a's kept slot %d was not previously held (before %v)", s, before)
		}
	}
}

func TestFairnessFloor(t *testing.T) {
	a := New(slots(4))
	a.Join("whale", 1000, nil)
	tiny := a.Join("tiny", 1, nil)
	if len(tiny) != 1 {
		t.Fatalf("tiny job holds %d slots, want the 1-slot floor", len(tiny))
	}
	if got := a.Allocation("whale"); len(got) != 3 {
		t.Fatalf("whale holds %d slots, want 3", len(got))
	}
}

func TestMoreJobsThanSlotsOversubscribes(t *testing.T) {
	a := New(slots(2))
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		a.Join(id, 1, nil)
	}
	// Every job holds exactly one valid slot; coverage wraps round-robin.
	counts := map[int]int{}
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		got := a.Allocation(id)
		if len(got) != 1 {
			t.Fatalf("job %s holds %v, want exactly one slot", id, got)
		}
		for _, s := range got {
			counts[s]++
		}
	}
	if counts[0]+counts[1] != 5 {
		t.Fatalf("slot usage = %v, want all 5 jobs placed", counts)
	}
	// Draining back below the slot count restores the disjoint partition.
	for _, id := range []string{"c", "d", "e"} {
		a.Leave(id)
	}
	aSlots, bSlots := a.Allocation("a"), a.Allocation("b")
	if len(aSlots) != 1 || len(bSlots) != 1 || aSlots[0] == bSlots[0] {
		t.Fatalf("after drain: a=%v b=%v, want disjoint single slots", aSlots, bSlots)
	}
}

func TestSetShareRebalances(t *testing.T) {
	a := New(slots(8))
	a.Join("a", 1, nil)
	a.Join("b", 1, nil)
	a.SetShare("a", 3)
	if got := a.Allocation("a"); len(got) != 6 {
		t.Fatalf("a holds %d slots after share bump, want 6", len(got))
	}
	if got := a.Allocation("b"); len(got) != 2 {
		t.Fatalf("b holds %d slots after a's share bump, want 2", len(got))
	}
}

func TestJoinIsIdempotent(t *testing.T) {
	a := New(slots(4))
	first := a.Join("a", 1, nil)
	second := a.Join("a", 5, nil)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("re-join changed the allocation: %v vs %v", first, second)
	}
}
