package experiments

import (
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

func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// A representative subset re-run with the same seed must render the
	// identical table.
	for _, id := range []string{"E1", "E3", "E5"} {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("runner %s missing", id)
		}
		a := r.Run(7).Table.String()
		b := r.Run(7).Table.String()
		if a != b {
			t.Errorf("%s not deterministic", id)
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
	if len(All()) != 25 {
		t.Errorf("expected 25 experiments, have %d", len(All()))
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

// TestMovedChecksKeepTheirNames: a check whose exhibit was retired with no
// test holding it lives on, under its name, in the exhibit named here —
// dropping it from that exhibit fails this row.
func TestMovedChecksKeepTheirNames(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are long in -short mode")
	}
	moved := []struct{ check, from, to string }{
		{"threshold-installed-live", "E20", "E28"},
	}
	for _, m := range moved {
		r, ok := ByID(m.to)
		if !ok {
			t.Fatalf("%s (home of %s's %s) is not registered", m.to, m.from, m.check)
		}
		found := false
		for _, c := range r.Run(42).Checks {
			if c.Name == m.check {
				found = true
				if !c.Pass {
					t.Errorf("%s: %s failed: %s", m.to, m.check, c.Detail)
				}
			}
		}
		if !found {
			t.Errorf("%s no longer carries %s, moved there from %s", m.to, m.check, m.from)
		}
	}
}

func TestRunnersDeclarePlacements(t *testing.T) {
	valid := map[Placement]bool{PlaceVSim: true, PlaceLocal: true, PlaceCluster: true}
	modern := 0
	for _, r := range All() {
		if !valid[r.Placement] {
			t.Errorf("%s: placement %q is not a known substrate", r.ID, r.Placement)
		}
		if r.Placement != PlaceVSim {
			modern++
		}
	}
	// The modern stack must stay exercised: at least one experiment each on
	// the service layer and the in-process cluster.
	if modern < 2 {
		t.Errorf("only %d experiments leave the simulator", modern)
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
