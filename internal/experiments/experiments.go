// Package experiments contains one driver per experiment in the generated
// reproduction report (EXPERIMENTS.md; regenerate with `go run
// ./cmd/graspbench -write-docs`). Each driver builds its substrate and
// workload, runs the adaptive system and its baselines, and returns a
// rendered table plus machine-checkable shape assertions — the
// reproduction of the paper's evaluation exhibits.
//
// The poster itself publishes a methodology figure and two algorithms
// rather than numeric tables; the quantitative shapes tested here are the
// claims those exhibits make and the companion papers (refs [6], [7])
// evaluate: adaptive beats static under pressure, the gap grows with
// pressure, statistical calibration beats raw times under noise, thresholds
// trade stability against responsiveness, and calibration overhead
// amortises.
//
// Every experiment declares a Placement — the execution substrate it
// drives. E1–E19 and E29 run on the deterministic virtual-time grid
// simulator and reproduce the paper's claim (calibrate, run the skeleton,
// detect, recalibrate) byte-identically per seed. E21–E23, E28 and E30 run
// the modern stack itself on the wall clock, and each holds a claim no
// test states: three skeletons over the daemon's HTTP API (E21), an
// evicted node rejoining the job it was dropped from (E22), one workload
// on three substrates (E23, the bridge from the simulator to the daemon),
// a breach-recalibration reconstructed from the timeline endpoint alone
// (E28), and a flash crowd whose queue-depth forecast autoscales the
// job's fair share (E30). E29 grades reactive vs predictive policies on
// an identical seeded slow-node degradation.
//
// A claim has one home: what the service, cluster and multi-process e2e
// suites assert is not re-told here as a wall-clock exhibit. IDs are never
// reused, so the index has gaps where such exhibits were retired.
package experiments

import (
	"fmt"

	"grasp/internal/report"
)

// Check is one shape assertion an experiment makes about its own output.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Result is an experiment's full outcome.
type Result struct {
	ID     string
	Title  string
	Table  *report.Table
	Checks []Check
}

// Passed reports whether every check holds.
func (r Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// FailedChecks lists the names of failing checks.
func (r Result) FailedChecks() []string {
	var out []string
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, fmt.Sprintf("%s (%s)", c.Name, c.Detail))
		}
	}
	return out
}

// check builds a Check from a condition.
func check(name string, pass bool, detailFormat string, args ...any) Check {
	return Check{Name: name, Pass: pass, Detail: fmt.Sprintf(detailFormat, args...)}
}

// Placement names the execution substrate an experiment drives.
type Placement string

// The three substrates an experiment can execute on.
const (
	// PlaceVSim is the deterministic virtual-time grid simulator
	// (internal/vsim + internal/grid): stochastic inputs are seeded, time is
	// virtual, and every run with the same seed is byte-identical.
	PlaceVSim Placement = "vsim"
	// PlaceLocal is the real goroutine runtime behind internal/service: the
	// streaming multi-job layer (and, for E21, the daemon's HTTP API over
	// it) running on actual wall-clock time.
	PlaceLocal Placement = "local"
	// PlaceCluster is an in-process cluster.Pool: a coordinator plus worker
	// runtimes speaking the real HTTP worker-node protocol inside one
	// process, behind the same service layer.
	PlaceCluster Placement = "cluster"
)

// Runner is a named experiment entry point. Seed varies the stochastic
// inputs; for the vsim placement every run with the same seed is
// identical, while local/cluster runs assert shapes that hold on any
// healthy machine.
type Runner struct {
	ID    string
	Title string
	// Placement is the execution substrate the experiment drives; the
	// generated report groups and labels experiments by it.
	Placement Placement
	Run       func(seed int64) Result
}

// All returns every experiment in index order. Each runnerEN value lives
// next to its driver in eN.go — the registration seam every experiment
// file owns.
func All() []Runner {
	return []Runner{
		runnerE1, runnerE2, runnerE3, runnerE4, runnerE5, runnerE6,
		runnerE7, runnerE8, runnerE9, runnerE10, runnerE11, runnerE12,
		runnerE13, runnerE14, runnerE15, runnerE16, runnerE17, runnerE18,
		runnerE19, runnerE21, runnerE22, runnerE23, runnerE28, runnerE29,
		runnerE30,
	}
}

// ByID returns the runner with the given ID (case-sensitive), or false.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
