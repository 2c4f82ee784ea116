// Command bench is the repository's benchmark: it builds graspd and
// graspworker, runs them as real processes on free ports, drives them over
// the public HTTP API from this one process, checks the output, and prints
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
// See README.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"grasp/bench/spanlog"
)

// defaultSeconds is the measured window BENCHMARK.json's run_seconds asks
// for.
const defaultSeconds = 15

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result as the last line (default: run all five)")
		seed    = flag.Int64("seed", 1, "seed of the task jitter and the open-loop schedule")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and bench/out/trace.json")
		aa      = flag.Bool("aa", false, "run the whole suite twice and compare every end-to-end metric against its bound")
		smoke   = flag.Bool("smoke", false, "0.5 s windows and a short ladder: checks the harness, not the system")
		root    = flag.String("root", "", "repository root (default: found from the working directory)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *aa, *smoke, *root); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// findRoot walks up from the working directory to the directory that holds
// cmd/graspd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "graspd")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/graspd above the working directory; pass -root")
		}
		dir = parent
	}
}

// newEnvironment prepares one run's environment. Warm-up and the number of
// set-ups are fixed here, not flags: they are part of the benchmark.
func newEnvironment(binDir, workDir string, seed int64, seconds float64, traced, smoke bool) *environment {
	env := &environment{
		binDir: binDir, workDir: workDir,
		conns: max(2, runtime.NumCPU()),
		seed:  seed, seconds: seconds, warm: 2, setups: 9,
		epoch: time.Now(),
	}
	if smoke {
		env.warm, env.setups = 0.2, 1
	}
	if traced {
		env.tr = spanlog.New(env.epoch)
	}
	nominal := env.warm + env.seconds + 10
	env.deadline = env.epoch.Add(time.Duration(3 * nominal * float64(time.Second)))
	return env
}

func run(name string, seed int64, seconds float64, traced, aa, smoke bool, root string) error {
	if smoke {
		seconds = 0.5
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	var err error
	if root == "" {
		if root, err = findRoot(); err != nil {
			return err
		}
	}
	if root, err = filepath.Abs(root); err != nil {
		return err
	}
	// Everything the benchmark writes stays inside the checkout: binaries and
	// data directories under .bench_build, reports under bench/out.
	buildDir := filepath.Join(root, ".bench_build")
	binDir := filepath.Join(buildDir, "bin")
	outDir := filepath.Join(root, "bench", "out")
	if err := buildBinaries(root, binDir, traced); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(workDir)
		syscall.Sync() // leave no pending deletions for the next run's fsyncs to pay for
	}()

	selected := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}

	var ladder map[string]float64
	traces := map[string]any{} // workload (or "ladder") → its spans
	runOne := func(w workload, traced bool) (*result, error) {
		env := newEnvironment(binDir, workDir, seed, seconds, traced, smoke)
		res, err := runWorkload(env, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if traced {
			if ladder == nil {
				var spans json.RawMessage
				if ladder, spans, err = runLadder(binDir, workDir, seed, smoke); err != nil {
					return nil, err
				}
				traces["ladder"] = spans
			}
			// budget.cpu_ns_per_task is the ladder's half of budget.coverage,
			// not a metric of its own.
			for k, v := range ladder {
				if k != "budget.cpu_ns_per_task" {
					res.Metrics[k] = v
				}
			}
			res.Metrics["budget.coverage"] = ratio(ladder["budget.cpu_ns_per_task"], res.cpuUSPerTask*1e3)
			traces[w.name] = env.tr.Spans()
		}
		checkMetrics(res)
		return res, nil
	}

	var all []*result
	passes := 1
	if aa {
		// Only the workloads BENCHMARK.json gates have bounds to hold.
		passes, traced = 2, false
		var gated []workload
		for _, w := range selected {
			if !w.suiteOnly {
				gated = append(gated, w)
			}
		}
		selected = gated
	}
	for pass := 0; pass < passes; pass++ {
		for _, w := range selected {
			modes := []bool{false}
			if traced {
				modes = []bool{true}
				if name == "" {
					modes = []bool{false, true} // the suite prints both sets
				}
			}
			for _, mode := range modes {
				res, err := runOne(w, mode)
				if err != nil {
					return err
				}
				all = append(all, res)
				printResult(res)
			}
		}
	}
	if err := writeJSON(outDir, "results.json", map[string]any{
		"generated_unix": time.Now().Unix(),
		"nproc":          runtime.NumCPU(),
		"results":        all,
	}); err != nil {
		return err
	}
	if len(traces) > 0 {
		if err := writeJSON(outDir, "trace.json", traces); err != nil {
			return err
		}
	}
	failed := false
	for _, res := range all {
		for _, p := range res.Problems {
			failed = true
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", res.Workload, p)
		}
	}
	if aa {
		ok, err := compareAA(root, all)
		if err != nil {
			return err
		}
		failed = failed || !ok
	}
	if name != "" {
		// The driver's contract: the last line of standard output is the
		// run's result as one JSON object.
		fmt.Println(contractLine(all[len(all)-1]))
	}
	if failed {
		return errors.New("output check failed")
	}
	return nil
}

// runLadder runs the in-process ladder binary and returns its metrics and
// its spans.
func runLadder(binDir, workDir string, seed int64, smoke bool) (map[string]float64, json.RawMessage, error) {
	args := []string{"-seed", fmt.Sprint(seed), "-dir", workDir}
	if smoke {
		args = append(args, "-tasks", "640")
	}
	cmd := exec.Command(filepath.Join(binDir, "ladder"), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	var reply struct {
		Metrics map[string]float64 `json:"metrics"`
		Spans   json.RawMessage    `json:"spans"`
	}
	if err := json.Unmarshal(out, &reply); err != nil {
		return nil, nil, fmt.Errorf("ladder output: %w", err)
	}
	return reply.Metrics, reply.Spans, nil
}

// defsFor is the metric set a run of that kind must print.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer()
	}
	return endToEnd
}

// checkMetrics holds a result to its metric set: every named metric
// present and finite, nothing else, and no end-to-end metric zero.
func checkMetrics(res *result) {
	defs := defsFor(res.Traced)
	want := make(map[string]bool, len(defs))
	for _, d := range defs {
		want[d.name] = true
		v, ok := res.Metrics[d.name]
		switch {
		case !ok:
			res.Problems = append(res.Problems, "metric "+d.name+" was not measured")
		case math.IsNaN(v) || math.IsInf(v, 0):
			res.Problems = append(res.Problems, "metric "+d.name+" is not finite")
		case !res.Traced && v <= 0:
			res.Problems = append(res.Problems, "end-to-end metric "+d.name+" is not positive")
		}
	}
	for name := range res.Metrics {
		if !want[name] {
			res.Problems = append(res.Problems, "metric "+name+" is not in the benchmark's metric set")
		}
	}
	res.Correct = len(res.Problems) == 0
}

// printResult prints every metric of a run by name, with its unit.
func printResult(res *result) {
	kind := "end-to-end, untraced"
	if res.Traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("== %s  seed %d  (%s)\n", res.Workload, res.Seed, kind)
	for _, d := range defsFor(res.Traced) {
		fmt.Printf("  %-36s %14.4f %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	fmt.Printf("  %-36s %14.6f ratio  (%d of %d operations)\n", "failed_ratio",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
}

// contractLine renders a result as the driver reads it.
func contractLine(res *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, d := range defsFor(res.Traced) {
		metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": max(1, res.Attempted), "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // a non-finite metric; checkMetrics has already reported it
	}
	return string(line)
}

// writeJSON stores v as dir/file.
func writeJSON(dir, file string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), append(data, '\n'), 0o644)
}

// compareAA compares the two passes of an -aa run: the same code measured
// twice must agree, on every end-to-end metric of every workload, within
// the bound BENCHMARK.json fixes for that metric.
func compareAA(root string, all []*result) (bool, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	half := len(all) / 2
	ok := true
	fmt.Println("== A/A: second pass against first, relative change in the worse direction, beside its bound")
	for i := 0; i < half; i++ {
		a, b := all[i], all[half+i]
		for _, m := range spec.EndToEnd {
			worse := ratio(b.Metrics[m.Name]-a.Metrics[m.Name], a.Metrics[m.Name])
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Printf("  %-16s %-16s %12.4f -> %12.4f  %+7.2f%%  bound %4.0f%%  %s\n",
				a.Workload, m.Name, a.Metrics[m.Name], b.Metrics[m.Name], worse*100, m.Bound*100, verdict)
		}
	}
	return ok, nil
}
