// Command graspbench regenerates the paper-shaped experiment tables (the
// E-matrix indexed in the generated DESIGN.md). It is the source of the
// generated reproduction report: every table printed here corresponds to
// one exhibit of the paper's evaluation, each experiment carries shape
// checks that are verified after the run, and -write-docs rewrites
// EXPERIMENTS.md and DESIGN.md from the current code and results.
//
// Usage:
//
//	graspbench                 run every experiment
//	graspbench -experiment E3  run one experiment
//	graspbench -seed 7         change the stochastic seed
//	graspbench -list           list experiment IDs and titles
//	graspbench -write-docs     run the E-matrix and regenerate
//	                           EXPERIMENTS.md and DESIGN.md in the module
//	                           root (deterministic; wired to `go generate .`
//	                           and CI's docs-drift gate)
//
// The process exits non-zero if any shape check fails.
package main

import (
	"flag"
	"fmt"
	"os"

	"grasp/internal/experiments"
)

func main() {
	var (
		expID = flag.String("experiment", "", "experiment ID to run (default: all)")
		seed  = flag.Int64("seed", 42, "seed for stochastic inputs")
		list  = flag.Bool("list", false, "list experiments and exit")
		quiet = flag.Bool("quiet", false, "print only check failures")
		docs  = flag.Bool("write-docs", false, "run the E-matrix and regenerate EXPERIMENTS.md and DESIGN.md in the module root")
	)
	flag.Parse()

	if *docs {
		root, err := findRoot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "graspbench: %v\n", err)
			os.Exit(1)
		}
		failures, err := writeDocs(root, *seed, *quiet)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graspbench: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("wrote %s and %s\n", "EXPERIMENTS.md", "DESIGN.md")
		}
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "graspbench: %d shape check(s) failed (see EXPERIMENTS.md)\n", failures)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return
	}

	runners := experiments.All()
	if *expID != "" {
		r, ok := experiments.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "graspbench: unknown experiment %q (use -list)\n", *expID)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	failures := 0
	for _, r := range runners {
		res := r.Run(*seed)
		if !*quiet {
			fmt.Print(res.Table.String())
		}
		for _, c := range res.Checks {
			status := "ok"
			if !c.Pass {
				status = "FAIL"
				failures++
			}
			if !c.Pass || !*quiet {
				fmt.Printf("  [%s] %s: %s — %s\n", status, res.ID, c.Name, c.Detail)
			}
		}
		if !*quiet {
			fmt.Println()
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "graspbench: %d shape check(s) failed\n", failures)
		os.Exit(1)
	}
}
