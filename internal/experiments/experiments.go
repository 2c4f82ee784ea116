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
// Every experiment runs on the deterministic virtual-time grid simulator
// (internal/vsim + internal/grid): stochastic inputs are seeded, time is
// virtual, and every run with the same seed is byte-identical. E1–E19
// reproduce the paper's claim (calibrate, run the skeleton, detect,
// recalibrate); E29 grades reactive vs predictive policies on an
// identical seeded slow-node degradation.
//
// A claim has one home: what the service, cluster and multi-process e2e
// suites assert on the wall clock is not re-told here as an exhibit. IDs
// are never reused, so the index has gaps where such exhibits were
// retired.
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

// Runner is a named experiment entry point. Seed varies the stochastic
// inputs; every run with the same seed is identical.
type Runner struct {
	ID    string
	Title string
	Run   func(seed int64) Result
}

// All returns every experiment in index order. Each runnerEN value lives
// next to its driver in eN.go — the registration seam every experiment
// file owns.
func All() []Runner {
	return []Runner{
		runnerE1, runnerE2, runnerE3, runnerE4, runnerE5, runnerE6,
		runnerE7, runnerE8, runnerE9, runnerE10, runnerE11, runnerE12,
		runnerE13, runnerE14, runnerE15, runnerE16, runnerE17, runnerE18,
		runnerE19, runnerE29,
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
