// Benchmarks: one per paper exhibit E1–E19 (the E-matrix indexed in the
// generated DESIGN.md; regenerate it and EXPERIMENTS.md with `go generate
// .`). Each benchmark regenerates the experiment's table in virtual time
// under the timer and reports its passed shape checks via b.ReportMetric,
// so `go test -bench=.` reproduces the paper-shaped results alongside the
// harness's own cost.
//
// Micro-benchmarks for the substrates (simulation kernel, channels,
// calibration maths, farm dispatch) follow, quantifying the harness itself.
package grasp_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"grasp/internal/calibrate"
	"grasp/internal/experiments"
	"grasp/internal/grid"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/farm"
	"grasp/internal/stats"
	"grasp/internal/vsim"
)

// benchExperiment runs one experiment per iteration and fails the
// benchmark if a shape check regresses.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = r.Run(42)
	}
	if !res.Passed() {
		b.Fatalf("%s shape checks failed: %v", id, res.FailedChecks())
	}
	passed := 0
	for range res.Checks {
		passed++
	}
	b.ReportMetric(float64(passed), "checks")
}

func BenchmarkE1Lifecycle(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2Calibration(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3FarmAdaptive(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4PipeAdaptive(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5Threshold(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6Ranking(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7Scalability(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8Heterogeneity(b *testing.B)   { benchExperiment(b, "E8") }
func BenchmarkE9CalibCost(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Ablation(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11ThresholdRule(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12FaultTolerance(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13Map(b *testing.B)            { benchExperiment(b, "E13") }
func BenchmarkE14Reduce(b *testing.B)         { benchExperiment(b, "E14") }
func BenchmarkE15Compose(b *testing.B)        { benchExperiment(b, "E15") }
func BenchmarkE16DivideConquer(b *testing.B)  { benchExperiment(b, "E16") }
func BenchmarkE17Migration(b *testing.B)      { benchExperiment(b, "E17") }
func BenchmarkE18MultiSite(b *testing.B)      { benchExperiment(b, "E18") }
func BenchmarkE19Proactive(b *testing.B)      { benchExperiment(b, "E19") }

// BenchmarkVsimContextSwitch measures the kernel's run-to-block handoff:
// two processes ping-pong over an unbuffered channel.
func BenchmarkVsimContextSwitch(b *testing.B) {
	env := vsim.New()
	ch := vsim.NewChan[int](env, "pp", 0)
	n := b.N
	env.Go("ping", func(p *vsim.Proc) {
		for i := 0; i < n; i++ {
			ch.Send(p, i)
		}
	})
	env.Go("pong", func(p *vsim.Proc) {
		for i := 0; i < n; i++ {
			ch.Recv(p)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkVsimTimerWheel measures timer scheduling throughput: many
// processes sleeping staggered intervals.
func BenchmarkVsimTimerWheel(b *testing.B) {
	env := vsim.New()
	const procs = 64
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		d := time.Duration(i+1) * time.Microsecond
		env.Go(fmt.Sprintf("p%d", i), func(p *vsim.Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(d)
			}
		})
	}
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGridExecute measures the cost of one simulated remote execution
// (transfer + load-integrated compute + transfer).
func BenchmarkGridExecute(b *testing.B) {
	env := vsim.New()
	g, err := grid.New(env, grid.Config{
		Nodes: grid.HeterogeneousSpecs(1, 8, 100, 0.5),
	})
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	env.Go("driver", func(p *vsim.Proc) {
		for i := 0; i < n; i++ {
			g.Execute(p, grid.NodeID(i%8), grid.Work{Cost: 1, InBytes: 100, OutBytes: 10})
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFarmDispatch measures farmer throughput: tasks per second of
// real time through the demand-driven farm on the simulator.
func BenchmarkFarmDispatch(b *testing.B) {
	env := vsim.New()
	sim := rt.NewSim(env)
	g, err := grid.New(env, grid.Config{Nodes: grid.HeterogeneousSpecs(2, 16, 1e6, 0.3)})
	if err != nil {
		b.Fatal(err)
	}
	pf := platform.NewGridPlatform(sim, g, 0, 1)
	tasks := make([]platform.Task, b.N)
	for i := range tasks {
		tasks[i] = platform.Task{ID: i, Cost: 1}
	}
	b.ResetTimer()
	sim.Go("root", func(c rt.Ctx) {
		farm.Run(pf, c, tasks, farm.Options{})
	})
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCalibrateRank measures Algorithm 1's ranking maths
// (multivariate regression over P samples).
func BenchmarkCalibrateRank(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const p = 64
	samples := make([]calibrate.Sample, p)
	for i := range samples {
		samples[i] = calibrate.Sample{
			Worker: i,
			Time:   time.Duration(rng.Float64() * float64(time.Second)),
			Load:   rng.Float64(),
			BW:     rng.Float64(),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calibrate.Rank(samples, calibrate.Multivariate)
	}
}

// BenchmarkMultiRegress measures the OLS solver on a 3-predictor system.
func BenchmarkMultiRegress(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const n = 256
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = 1 + 2*x[i][0] - x[i][1] + 0.5*x[i][2] + rng.NormFloat64()*0.01
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.MultiRegress(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
