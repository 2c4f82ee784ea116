package experiments

import (
	"fmt"
	"time"

	"grasp/internal/calibrate"
	"grasp/internal/grid"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/skel/farm"
)

// E18MultiSite exercises the grid model's multi-domain structure — sites
// behind shared gateways, the "grid resource co-allocation" the paper's
// parallel environment handles — and asks whether Algorithm 1 makes the
// co-allocation decision correctly.
//
// Half the nodes sit in a remote site behind a narrow shared gateway, so
// every byte to or from them serialises on one link. The right worker set
// depends on the communication/computation ratio: with weightless tasks,
// co-allocating both sites doubles the throughput; with heavy payloads the
// gateway starves the remote site and the local site alone is optimal.
// Because calibration probes carry the real payload, the ranking sees the
// gateway, and selecting by aggregate speed fraction
// (Ranking.SelectBySpeedFraction) lands on the right side of the trade
// automatically. Expected shape: the fixed choices flip across the sweep
// while the calibrated choice tracks the winner everywhere.
func E18MultiSite(seed int64) Result {
	const (
		perSite   = 8
		speed     = 100.0
		taskCost  = 100.0 // 1 s of compute per task
		nTasks    = 800
		gatewayBW = 2e6 // bytes/s across the remote site's shared uplink
		frac      = 0.9 // aggregate-speed fraction for the calibrated choice
	)
	payloads := []float64{0, 5e5, 4e6}

	table := report.NewTable("E18 — Multi-site co-allocation by communication/computation ratio",
		"payload B", "local only", "both sites", "calibrated", "chosen (local+remote)")
	var checks []Check
	var localSpans, bothSpans, graspSpans []time.Duration

	specs := make([]grid.NodeSpec, 2*perSite)
	for i := range specs {
		site := 0
		if i >= perSite {
			site = 1
		}
		specs[i] = grid.NodeSpec{BaseSpeed: speed, Site: site}
	}
	cfg := grid.Config{
		Nodes: specs,
		Gateways: map[int]grid.LinkSpec{
			1: {Latency: 20 * time.Millisecond, Bandwidth: gatewayBW},
		},
	}

	for _, payload := range payloads {
		// After one calibration round (identical in every variant), farm
		// the remaining tasks over three worker sets: local site only,
		// both sites, and the speed-fraction selection from the ranking.
		runVariant := func(choose func(r calibrate.Ranking) []int) (time.Duration, []int, int) {
			w := newWorld(cfg, 0, seed)
			all := fixedTasks(nTasks, taskCost, payload, 0)
			var chosen []int
			var done int
			span := w.run(func(c rt.Ctx) {
				out, err := calibrate.Run(w.pf, c, calibrate.Options{
					Strategy: calibrate.TimeOnly,
					Probes:   all[:2*perSite],
				})
				if err != nil {
					panic(err)
				}
				done += len(out.Results)
				chosen = choose(out.Ranking)
				frep := farm.Run(w.pf, c, all[2*perSite:], farm.Options{Workers: chosen})
				done += len(frep.Results)
			})
			return span, chosen, done
		}

		localOnly := func(calibrate.Ranking) []int {
			ws := make([]int, perSite)
			for i := range ws {
				ws[i] = i
			}
			return ws
		}
		bothSites := func(calibrate.Ranking) []int {
			ws := make([]int, 2*perSite)
			for i := range ws {
				ws[i] = i
			}
			return ws
		}
		fraction := func(r calibrate.Ranking) []int { return r.SelectBySpeedFraction(frac) }

		localSpan, _, localDone := runVariant(localOnly)
		bothSpan, _, bothDone := runVariant(bothSites)
		graspSpan, graspChosen, graspDone := runVariant(fraction)
		localSpans = append(localSpans, localSpan)
		bothSpans = append(bothSpans, bothSpan)
		graspSpans = append(graspSpans, graspSpan)

		nLocal, nRemote := 0, 0
		for _, wID := range graspChosen {
			if wID < perSite {
				nLocal++
			} else {
				nRemote++
			}
		}
		table.AddRow(fmt.Sprintf("%.0f", payload), secs(localSpan), secs(bothSpan), secs(graspSpan),
			fmt.Sprintf("%d+%d", nLocal, nRemote))

		id := fmt.Sprintf("@%.0fB", payload)
		checks = append(checks,
			check("complete-local"+id, localDone == nTasks, "%d results", localDone),
			check("complete-both"+id, bothDone == nTasks, "%d results", bothDone),
			check("complete-calibrated"+id, graspDone == nTasks, "%d results", graspDone),
		)
		best := localSpan
		if bothSpan < best {
			best = bothSpan
		}
		checks = append(checks, check("calibrated-tracks-best"+id,
			graspSpan <= best*115/100,
			"calibrated %v vs best fixed %v", graspSpan, best))
		if payload == 0 {
			checks = append(checks, check("co-allocates-when-comm-free",
				nRemote >= perSite/2, "chose %d remote nodes", nRemote))
		}
		if payload == payloads[len(payloads)-1] {
			checks = append(checks, check("consolidates-when-comm-dear",
				nRemote <= 2 && nLocal == perSite,
				"chose %d local + %d remote", nLocal, nRemote))
		}
	}

	checks = append(checks,
		check("both-sites-win-at-zero", bothSpans[0] < localSpans[0],
			"both %v vs local %v", bothSpans[0], localSpans[0]),
		check("local-wins-at-heavy", localSpans[len(payloads)-1] < bothSpans[len(payloads)-1],
			"local %v vs both %v", localSpans[len(payloads)-1], bothSpans[len(payloads)-1]),
	)
	table.AddNote("16 equal nodes, half behind a 2 MB/s shared gateway; fraction-0.9 selection")
	return Result{ID: "E18", Title: "Multi-site co-allocation", Table: table, Checks: checks}
}

// runnerE18 registers E18 in the experiment index.
var runnerE18 = Runner{ID: "E18", Title: "Multi-site co-allocation by communication/computation ratio", Run: E18MultiSite}
