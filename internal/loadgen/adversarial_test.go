package loadgen

import (
	"testing"
	"time"
)

func TestRampShape(t *testing.T) {
	r := Ramp(0.1, 0.9, time.Second, 2*time.Second, 8)
	if got := r.At(0); got != 0.1 {
		t.Errorf("At(0) = %v, want the from level", got)
	}
	if got := r.At(500 * time.Millisecond); got != 0.1 {
		t.Errorf("At(0.5s) = %v, want the from level before start", got)
	}
	if got := r.At(10 * time.Second); got != 0.9 {
		t.Errorf("At(10s) = %v, want the to level held after the ramp", got)
	}
	prev := -1.0
	for at := time.Duration(0); at <= 4*time.Second; at += 50 * time.Millisecond {
		v := r.At(at)
		if v < prev {
			t.Fatalf("ramp decreased at %v: %v after %v", at, v, prev)
		}
		prev = v
	}
}

func TestDegradationScheduleDeterministicWithOneVictim(t *testing.T) {
	const n = 5
	horizon := 10 * time.Second
	a := DegradationSchedule(7, n, horizon)
	b := DegradationSchedule(7, n, horizon)
	other := DegradationSchedule(8, n, horizon)
	if len(a) != n {
		t.Fatalf("got %d traces, want %d", len(a), n)
	}
	victims, sameAsOther := 0, true
	for i := range a {
		for at := time.Duration(0); at <= horizon; at += horizon / 16 {
			if a[i].At(at) != b[i].At(at) {
				t.Fatalf("node %d diverges at %v under the same seed", i, at)
			}
			if a[i].At(at) != other[i].At(at) {
				sameAsOther = false
			}
		}
		// The victim's ramp holds heavy contention at the horizon; the
		// background walks stay well below it.
		if a[i].At(horizon) >= 0.75 {
			victims++
		}
	}
	if victims != 1 {
		t.Errorf("%d nodes at heavy load at the horizon, want exactly the one victim", victims)
	}
	if sameAsOther {
		t.Error("seeds 7 and 8 produced identical schedules")
	}
}
