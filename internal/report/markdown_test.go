package report

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// sampleDoc builds the document the golden file pins down: every block
// kind, a table with mixed cell types, escaping, and notes.
func sampleDoc() *Doc {
	tb := NewTable("Throughput by skeleton", "skeleton", "tasks", "tput", "ok|flag")
	tb.AddRow("farm", 200, 1234.5, "yes")
	tb.AddRow("pipeline|3", 200, 7.0, "no")
	tb.AddNote("pipe | in a note")

	d := NewDoc()
	d.Heading(1, "Sample %s", "report")
	d.Para("A paragraph with %d interpolations.", 1)
	d.Heading(2, "Results")
	d.Table(tb)
	d.Bullet("first item")
	d.Bullet("second item")
	d.Check("shape-holds", true)
	d.Check("shape-breaks", false)
	d.Code("sh", "go run ./cmd/graspbench -write-docs")
	d.Raw("raw trailing block")
	return d
}

func TestDocGolden(t *testing.T) {
	got := sampleDoc().String()
	path := filepath.Join("testdata", "doc.golden.md")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (re-run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("doc drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestDocDeterministic(t *testing.T) {
	first := sampleDoc().String()
	for i := 0; i < 3; i++ {
		if again := sampleDoc().String(); again != first {
			t.Fatalf("render %d differs from first render", i)
		}
	}
}

func TestMarkdownTableAlignment(t *testing.T) {
	tb := NewTable("", "name", "v")
	tb.AddRow("short", 1)
	tb.AddRow("a-much-longer-name", 123456)
	lines := strings.Split(strings.TrimRight(markdown(tb), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), lines)
	}
	// Every line has the same width and the same pipe positions.
	for i, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Errorf("line %d width %d != header width %d", i+1, len(l), len(lines[0]))
		}
		for pos, c := range lines[0] {
			if c == '|' && l[pos] != '|' {
				t.Errorf("line %d: pipe misaligned at column %d: %q", i+1, pos, l)
			}
		}
	}
	if !strings.HasPrefix(lines[1], "| ----") {
		t.Errorf("separator line = %q", lines[1])
	}
}

func TestMarkdownEscapesPipes(t *testing.T) {
	tb := NewTable("", "h")
	tb.AddRow("a|b")
	out := markdown(tb)
	if !strings.Contains(out, `a\|b`) {
		t.Errorf("pipe not escaped: %q", out)
	}
	tb2 := NewTable("", "h")
	tb2.AddRow("line\nbreak")
	if out := markdown(tb2); !strings.Contains(out, "line break") {
		t.Errorf("newline not collapsed: %q", out)
	}
}

func TestDocCheckRendering(t *testing.T) {
	d := NewDoc()
	d.Check("good", true)
	d.Check("bad", false)
	out := d.String()
	if !strings.Contains(out, "- [x] good\n") || !strings.Contains(out, "- [ ] bad — FAIL\n") {
		t.Errorf("checks = %q", out)
	}
	if strings.Contains(out, "\n\n- [ ]") {
		t.Errorf("blank line splits the checklist: %q", out)
	}
}

// markdown renders t into a string.
func markdown(t *Table) string {
	var b strings.Builder
	_ = t.Markdown(&b)
	return b.String()
}
