package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestAllExperimentShapesHold runs every experiment once and requires every
// shape assertion to pass: this is the reproduction gate for the paper's
// claims.
func TestAllExperimentShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are long in -short mode")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			res := r.Run(42)
			if res.ID != r.ID {
				t.Errorf("result ID %q != runner ID %q", res.ID, r.ID)
			}
			if res.Table == nil || res.Table.NumRows() == 0 {
				t.Fatal("experiment produced no table rows")
			}
			for _, c := range res.Checks {
				if !c.Pass {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			t.Logf("\n%s", res.Table.String())
		})
	}
}

// TestExperimentsDeterministic: every exhibit runs in virtual time, so two
// runs with one seed render byte-identical tables and check lists.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, r := range All() {
		a, b := r.Run(7), r.Run(7)
		if a.Table.String() != b.Table.String() {
			t.Errorf("%s: table not deterministic", r.ID)
		}
		if ca, cb := fmt.Sprint(a.Checks), fmt.Sprint(b.Checks); ca != cb {
			t.Errorf("%s: checks not deterministic:\n%s\n%s", r.ID, ca, cb)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Error("E1 should exist")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 should not exist")
	}
	if len(All()) != 20 {
		t.Errorf("expected 20 experiments, have %d", len(All()))
	}
}

// TestExhibitCitationsResolve: every E<n> the prose cites — README, the
// root package doc, CI and the verify skill — is a registered runner, so
// retiring an exhibit cannot leave a sentence pointing at nothing.
func TestExhibitCitationsResolve(t *testing.T) {
	cite := regexp.MustCompile(`\bE[0-9]+\b`)
	for _, rel := range []string{"README.md", "doc.go", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", rel))
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(raw), "\n") {
			for _, id := range cite.FindAllString(line, -1) {
				if _, ok := ByID(id); !ok {
					t.Errorf("%s:%d cites %s, which is not a registered experiment", rel, n+1, id)
				}
			}
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Checks: []Check{
		{Name: "a", Pass: true},
		{Name: "b", Pass: false, Detail: "boom"},
	}}
	if r.Passed() {
		t.Error("Passed should be false")
	}
	failed := r.FailedChecks()
	if len(failed) != 1 || !strings.Contains(failed[0], "b") {
		t.Errorf("failed = %v", failed)
	}
	if !(Result{Checks: []Check{{Pass: true}}}).Passed() {
		t.Error("all-pass should be Passed")
	}
}

func TestTailThroughput(t *testing.T) {
	exits := []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	// Last 50%: 2 exits over [3s,4s]... from = 4-2 = 2 → (4-1-2)=1 exit over 1s.
	if got := tailThroughput(exits, 0.5); got != 1 {
		t.Errorf("tail = %v", got)
	}
	if tailThroughput(nil, 0.5) != 0 || tailThroughput(exits, 0) != 0 {
		t.Error("degenerate inputs should be 0")
	}
}

func TestOverlayTrace(t *testing.T) {
	// Covered indirectly by E5; check the combination rule directly.
	o := overlay{
		a: constTrace(0.3),
		b: stepTrace{},
	}
	if o.At(0) != 0.3 {
		t.Errorf("At(0) = %v", o.At(0))
	}
	if o.At(15*time.Second) != 0.9 {
		t.Errorf("At(15s) = %v", o.At(15*time.Second))
	}
	nc, ok := o.NextChange(0)
	if !ok || nc != 10*time.Second {
		t.Errorf("NextChange = %v %v", nc, ok)
	}
}

type constTrace float64

func (c constTrace) At(time.Duration) float64                       { return float64(c) }
func (c constTrace) NextChange(time.Duration) (time.Duration, bool) { return 0, false }

type stepTrace struct{}

func (stepTrace) At(t time.Duration) float64 {
	if t < 10*time.Second {
		return 0
	}
	return 0.9
}
func (stepTrace) NextChange(t time.Duration) (time.Duration, bool) {
	if t < 10*time.Second {
		return 10 * time.Second, true
	}
	return 0, false
}
