package cluster

// Tests for the sleep half of the execution kernel that hold on every
// platform: a sleep stays interruptible by Stop. The precision tests, which
// need the timerfd, are in sleep_linux_test.go.

import (
	"testing"
	"time"
)

// TestDegradePenaltyStopsPromptly: a worker degraded ×4 that is sleeping
// through a 10 s task — in the task's own sleep, or in the penalty that
// stretches it — leaves within 200 ms of Stop.
func TestDegradePenaltyStopsPromptly(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sleepUS int64
		factor  float64
	}{
		{"in the task's sleep", 10_000_000, 4},
		{"in the penalty", 2_000, 5_001}, // 2 ms stretched by a 10 s penalty
	} {
		t.Run(tc.name, func(t *testing.T) {
			co := testCoordinator(t, time.Second)
			url := startTestServer(t, co)
			w := startWorkerWith(t, WorkerConfig{
				Coordinator: url, ID: "slow", Capacity: 1,
				DegradeAfter: time.Nanosecond, DegradeFactor: tc.factor,
			})
			live := co.Live()
			if _, err := co.submit(live[0].ID, live[0].Gen, sleepTasks(0, 1, tc.sleepUS)); err != nil {
				t.Fatal(err)
			}
			for co.Nodes()[0].InFlight == 0 { // leased: the worker runs it on arrival
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // past the 2 ms task, into its penalty
			began := time.Now()
			w.Stop()
			if took := time.Since(began); took > 200*time.Millisecond {
				t.Errorf("Stop took %v with a sleeping task, want < 200ms", took)
			}
		})
	}
}
