package core

import (
	"fmt"
	"testing"
	"time"

	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/sched"
)

// TestRoundLoopGolden pins RunFarm and RunMap, both driven through the
// shared calibrate→execute→breach→recalibrate loop, to the Rounds and
// Recalibrations the two separate loops produced before they were folded
// into one (values captured at the parent commit on the seeded
// degrading-grid schedule below).
func TestRoundLoopGolden(t *testing.T) {
	cases := []struct {
		name   string
		run    func(platform.Platform, rt.Ctx, []platform.Task) (Report, error)
		recals int
		rounds string
	}{
		{
			name: "farm",
			run: func(pf platform.Platform, c rt.Ctx, tasks []platform.Task) (Report, error) {
				return RunFarm(pf, c, tasks, Config{
					SelectK: 4, ThresholdFactor: 1.3, Rule: monitor.RuleMaxOver,
					Chunk: sched.FixedChunk{K: 4}, UseWeights: true,
				})
			},
			recals: 5,
			rounds: "[{[5 4 3 2] 85.801789ms 13.425894922s 784 true} {[5 3 2 1] 97.399932ms 24.803437115s 612 true} " +
				"{[5 3 2 1] 98.100238ms 26.548687023s 40 true} {[5 3 2 1] 98.697957ms 27.904800325s 16 true} " +
				"{[5 3 2 1] 98.697957ms 29.259399063s 16 true} {[5 3 2 1] 99.348418ms 46.927056441s 896 false}]",
		},
		{
			name: "map",
			run: func(pf platform.Platform, c rt.Ctx, tasks []platform.Task) (Report, error) {
				return RunMap(pf, c, tasks, MapConfig{
					SelectK: 4, ThresholdFactor: 1.3, Rule: monitor.RuleMaxOver, Waves: 6,
				})
			},
			recals: 2,
			rounds: "[{[5 4 3 2] 85.801789ms 14.286437592s 798 true} {[5 3 2 1] 97.399932ms 29.497894894s 795 true} " +
				"{[5 3 2 1] 99.348418ms 45.453516012s 789 false}]",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			traces := loadgen.DegradationSchedule(3, 6, 30*time.Second)
			specs := make([]grid.NodeSpec, len(traces))
			for i := range specs {
				specs[i] = grid.NodeSpec{BaseSpeed: 10 + 2*float64(i), Load: traces[i]}
			}
			pf, sim := gridPF(t, specs)
			var rep Report
			var err error
			sim.Go("root", func(c rt.Ctx) { rep, err = tc.run(pf, c, fixedTasks(2400, 1)) })
			if e := sim.Run(); e != nil {
				t.Fatal(e)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != 2400 {
				t.Errorf("results = %d, want 2400", len(rep.Results))
			}
			if rep.Recalibrations != tc.recals {
				t.Errorf("recalibrations = %d, want %d", rep.Recalibrations, tc.recals)
			}
			if got := fmt.Sprint(rep.Rounds); got != tc.rounds {
				t.Errorf("rounds =\n%s\nwant\n%s", got, tc.rounds)
			}
		})
	}
}
