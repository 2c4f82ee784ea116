package main

// The -write-docs mode makes the reproduction report a build artifact:
// it runs every experiment on the virtual-time simulator and regenerates
// EXPERIMENTS.md (every table plus its pass/fail shape checks) and
// DESIGN.md (the system inventory assembled from per-package doc comments
// plus the experiment index). The output is deterministic — no clocks, no
// map iteration, every experiment seeded — so repeated runs are
// byte-identical and CI can fail on drift with a plain `git diff
// --exit-code`.

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"grasp/internal/experiments"
	"grasp/internal/report"
)

// generatedMarker is the first line of both documents after the title —
// the machine-recognisable "do not edit" stamp.
const generatedMarker = "<!-- Code generated by `go run ./cmd/graspbench -write-docs`. DO NOT EDIT. -->"

// findRoot walks up from the working directory to the module root (the
// directory holding go.mod), where the generated documents live.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory (run from inside the repo)")
		}
		dir = parent
	}
}

// writeDocs runs every experiment and regenerates EXPERIMENTS.md and
// DESIGN.md under root. It returns the number of failed shape checks (the
// documents are still written, so a failure is visible in the diff too).
func writeDocs(root string, seed int64, quiet bool) (failures int, err error) {
	runners := experiments.All()
	results := make([]experiments.Result, len(runners))
	for i, r := range runners {
		if !quiet {
			fmt.Printf("running %-4s %s\n", r.ID, r.Title)
		}
		results[i] = r.Run(seed)
		failures += len(results[i].FailedChecks())
	}

	if err := os.WriteFile(filepath.Join(root, "EXPERIMENTS.md"),
		[]byte(renderExperiments(runners, results, seed)), 0o644); err != nil {
		return failures, err
	}

	inv, err := packageInventory(root)
	if err != nil {
		return failures, err
	}
	if err := os.WriteFile(filepath.Join(root, "DESIGN.md"),
		[]byte(renderDesign(runners, inv)), 0o644); err != nil {
		return failures, err
	}
	return failures, nil
}

// renderExperiments builds EXPERIMENTS.md: an index table plus one section
// per experiment with its rendered table and shape-check outcomes. Check
// details are deliberately omitted — they belong on the terminal; run
// `graspbench -experiment <ID>` to see them.
func renderExperiments(runners []experiments.Runner, results []experiments.Result, seed int64) string {
	d := report.NewDoc()
	d.Heading(1, "EXPERIMENTS — the generated reproduction report")
	d.Raw(generatedMarker)
	d.Para("Every experiment below executed on the deterministic virtual-time grid "+
		"simulator when this file was generated (seed %d). Each section shows the "+
		"experiment's rendered table and its machine-checkable shape assertions; check "+
		"details are printed by `go run ./cmd/graspbench -experiment <ID>`. The served "+
		"stack's claims (HTTP API, cluster failover and rejoin, timeline, share "+
		"autoscaling) are asserted by the service, cluster and end-to-end test suites. "+
		"Regenerate this file with `go run ./cmd/graspbench -write-docs` (or `go "+
		"generate .`); CI fails when it drifts from the code.", seed)

	d.Heading(2, "Index")
	idx := report.NewTable("", "ID", "checks", "status", "title")
	for i, r := range runners {
		status := "pass"
		if !results[i].Passed() {
			status = "FAIL"
		}
		idx.AddRow(r.ID, len(results[i].Checks), status, r.Title)
	}
	d.Table(idx)

	for i, r := range runners {
		res := results[i]
		d.Heading(2, "%s — %s", r.ID, r.Title)
		d.Table(res.Table)
		for _, c := range res.Checks {
			d.Check(c.Name, c.Pass)
		}
	}
	return d.String()
}

// pkgDoc is one package's inventory row.
type pkgDoc struct {
	Path     string // module-relative directory, "." for the root package
	Synopsis string
}

// packageInventory scans the module for Go packages and extracts each
// package's doc-comment synopsis — the inventory DESIGN.md is assembled
// from, which is what keeps the document checked against the code.
func packageInventory(root string) ([]pkgDoc, error) {
	var out []pkgDoc
	err := filepath.WalkDir(root, func(path string, entry os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !entry.IsDir() {
			return nil
		}
		name := entry.Name()
		if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		syn, ok, err := packageSynopsis(path)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out = append(out, pkgDoc{Path: filepath.ToSlash(rel), Synopsis: syn})
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, err
}

// packageSynopsis parses the non-test Go files of one directory and
// returns the first sentence of its package doc comment. ok is false when
// the directory holds no non-test Go files.
func packageSynopsis(dir string) (syn string, ok bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false, err
	}
	var files []string
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			files = append(files, n)
		}
	}
	if len(files) == 0 {
		return "", false, nil
	}
	sort.Strings(files)
	fset := token.NewFileSet()
	for _, n := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil,
			parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return "", false, err
		}
		if f.Doc != nil {
			return firstSentence(f.Doc.Text()), true, nil
		}
	}
	return "(no package documentation)", true, nil
}

// firstSentence reduces a doc comment to its first sentence, whitespace
// collapsed. A period only ends the sentence when followed by an
// uppercase-letter start (or nothing), so abbreviations like "Fig. 1" or
// "e.g. this" do not truncate it.
func firstSentence(text string) string {
	if i := strings.Index(text, "\n\n"); i >= 0 {
		text = text[:i]
	}
	text = strings.Join(strings.Fields(text), " ")
	for i := 0; i < len(text); i++ {
		if text[i] != '.' {
			continue
		}
		if i+1 == len(text) {
			return text
		}
		if text[i+1] == ' ' && i+2 < len(text) && text[i+2] >= 'A' && text[i+2] <= 'Z' {
			return text[:i+1]
		}
	}
	return text
}

// renderDesign builds DESIGN.md: the paper→system orientation, the
// package inventory (generated from doc comments), and the experiment
// index.
func renderDesign(runners []experiments.Runner, inv []pkgDoc) string {
	d := report.NewDoc()
	d.Heading(1, "DESIGN — system inventory")
	d.Raw(generatedMarker)
	d.Para("This document is assembled from the code: every synopsis below is the first " +
		"sentence of that package's doc comment, and the experiment index mirrors " +
		"`experiments.All()`. Regenerate with `go run ./cmd/graspbench -write-docs` " +
		"(or `go generate .`); CI fails when it drifts. The prose map of each layer " +
		"lives in the package docs themselves — start at the root package (doc.go) " +
		"and README.md.")

	d.Heading(2, "1. Orientation: paper → system")
	d.Para("The source paper (González-Vélez & Cole, PPoPP 2007) contributes GRASP — " +
		"adaptive structured parallelism for computational grids: calibrate a " +
		"non-dedicated platform statistically (Algorithm 1), run algorithmic skeletons " +
		"against the calibrated ranking, and let a threshold detector trigger " +
		"recalibration when observed task times breach it (Algorithm 2). This repo " +
		"reproduces that methodology and grows it into a serving system in four layers:")
	d.Bullet("**Substrate** — `internal/vsim`, `internal/grid`, `internal/rt`, " +
		"`internal/platform`: a deterministic virtual-time simulator and a real " +
		"goroutine runtime behind one platform interface.")
	d.Bullet("**Adaptive core** — `internal/calibrate`, `internal/monitor`, " +
		"`internal/sched`, `internal/stats`, `internal/core`: Algorithms 1 and 2 and " +
		"the GRASP lifecycle.")
	d.Bullet("**Skeletons over one engine** — `internal/skel/engine` and the skeleton " +
		"packages: one execution contract (weights in, breaches out, recalibrate hook, " +
		"bounded streaming intake, failure/retire) serving every dispatch topology.")
	d.Bullet("**Serving layers** — `internal/service` (multi-job streaming daemon " +
		"core), `internal/cluster` (distributed worker nodes), `internal/journal` " +
		"(the write-ahead log and snapshot store making the control plane " +
		"crash-recoverable; commits group-coalesce — one write syscall and one " +
		"fsync per batch — so durable ingest scales with request concurrency), " +
		"and the `cmd/` binaries that expose them.")

	group := func(title, prefix string) {
		var rows []pkgDoc
		for _, p := range inv {
			if strings.HasPrefix(p.Path, prefix) {
				rows = append(rows, p)
			}
		}
		if len(rows) == 0 {
			return
		}
		d.Heading(3, "%s", title)
		t := report.NewTable("", "package", "synopsis")
		for _, p := range rows {
			t.AddRow("`"+p.Path+"`", p.Synopsis)
		}
		d.Table(t)
	}

	d.Heading(2, "2. Package inventory")
	for _, p := range inv {
		if p.Path == "." {
			d.Para("`grasp` (module root) — %s", p.Synopsis)
		}
	}
	group("Library (`internal/...`)", "internal/")
	group("Binaries (`cmd/...`)", "cmd/")
	group("Examples (`examples/...`)", "examples/")
	d.Para("The examples are indexed with run commands in " +
		"[examples/README.md](examples/README.md).")

	d.Heading(2, "3. Experiment index")
	d.Para("One row per reproduction exhibit; tables, shape checks, and current " +
		"pass/fail state are generated into [EXPERIMENTS.md](EXPERIMENTS.md).")
	t := report.NewTable("", "ID", "title")
	for _, r := range runners {
		t.AddRow(r.ID, r.Title)
	}
	d.Table(t)

	d.Heading(2, "4. Regeneration and drift")
	d.Code("sh", "go run ./cmd/graspbench -write-docs   # or: go generate .\n"+
		"git diff --exit-code EXPERIMENTS.md DESIGN.md")
	d.Para("The `docs` CI job runs exactly that: experiments execute in virtual " +
		"time, the documents are rewritten, and any byte of drift fails the " +
		"build. `go test .` additionally checks every relative markdown link in the " +
		"repo resolves.")
	return d.String()
}
