package main

import (
	"strings"
	"testing"

	"grasp/internal/experiments"
	"grasp/internal/report"
)

func TestFirstSentence(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Package x does y.\n\nMore detail.", "Package x does y."},
		{"Package core implements Fig. 1 of the paper. Then more.",
			"Package core implements Fig. 1 of the paper."},
		{"One line no period", "One line no period"},
		{"Spans\nlines with a period. Next sentence.", "Spans lines with a period."},
		{"Ends exactly.", "Ends exactly."},
	}
	for _, c := range cases {
		if got := firstSentence(c.in); got != c.want {
			t.Errorf("firstSentence(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPackageInventoryCoversTheModule(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	inv, err := packageInventory(root)
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]string, len(inv))
	for _, p := range inv {
		byPath[p.Path] = p.Synopsis
	}
	for _, want := range []string{
		".", "internal/report", "internal/experiments", "internal/service",
		"internal/cluster", "internal/loadgen", "internal/metrics",
		"cmd/graspbench", "cmd/graspd", "cmd/graspworker", "examples/quickstart",
	} {
		if _, ok := byPath[want]; !ok {
			t.Errorf("inventory missing package %s", want)
		}
	}
	// The generated DESIGN.md inventory must be complete: a package without
	// a doc comment would render a placeholder row.
	for _, p := range inv {
		if strings.Contains(p.Synopsis, "no package documentation") {
			t.Errorf("package %s has no doc comment", p.Path)
		}
	}
	// Sorted, so rendering is deterministic.
	for i := 1; i < len(inv); i++ {
		if inv[i-1].Path >= inv[i].Path {
			t.Errorf("inventory not sorted: %s before %s", inv[i-1].Path, inv[i].Path)
		}
	}
}

// stubMatrix builds a tiny runner/result pair without executing anything —
// the renderers must be pure functions of it.
func stubMatrix() ([]experiments.Runner, []experiments.Result) {
	tb := report.NewTable("T", "k", "v")
	tb.AddRow("a", 1)
	runners := []experiments.Runner{
		{ID: "E1", Title: "First"},
		{ID: "E2", Title: "Second"},
	}
	results := []experiments.Result{
		{ID: "E1", Title: "First", Table: tb, Checks: []experiments.Check{{Name: "good", Pass: true}}},
		{ID: "E2", Title: "Second", Table: tb, Checks: []experiments.Check{{Name: "bad", Pass: false, Detail: "boom"}}},
	}
	return runners, results
}

func TestRenderExperimentsShape(t *testing.T) {
	runners, results := stubMatrix()
	out := renderExperiments(runners, results, 7)
	if out != renderExperiments(runners, results, 7) {
		t.Error("renderExperiments is not deterministic")
	}
	for _, want := range []string{
		generatedMarker,
		"## E1 — First",
		"## E2 — Second",
		"- [x] good",
		"- [ ] bad — FAIL",
		"| FAIL",
		"(seed 7)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPERIMENTS.md missing %q", want)
		}
	}
	if strings.Contains(out, "boom") {
		t.Error("check details must not leak into the generated report (they can carry timings)")
	}
}

func TestRenderDesignShape(t *testing.T) {
	runners, _ := stubMatrix()
	inv := []pkgDoc{
		{Path: ".", Synopsis: "Package grasp is the root."},
		{Path: "cmd/tool", Synopsis: "Command tool does things."},
		{Path: "examples/demo", Synopsis: "Demo shows things."},
		{Path: "internal/x", Synopsis: "Package x helps."},
	}
	out := renderDesign(runners, inv)
	if out != renderDesign(runners, inv) {
		t.Error("renderDesign is not deterministic")
	}
	for _, want := range []string{
		generatedMarker,
		"`internal/x`",
		"`cmd/tool`",
		"`examples/demo`",
		"Package grasp is the root.",
		"## 3. Experiment index",
		"| E2  | Second",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DESIGN.md missing %q", want)
		}
	}
}
