package report

import (
	"strings"
	"testing"
)

func TestRenderAlignment(t *testing.T) {
	tb := NewTable("T1", "name", "value")
	tb.AddRow("short", 1)
	tb.AddRow("much-longer-name", 123456)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "T1" {
		t.Errorf("title line = %q", lines[0])
	}
	// Header, separator, two rows.
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// All data lines equal width (aligned columns).
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("header/separator width mismatch: %q vs %q", lines[1], lines[2])
	}
	if !strings.Contains(lines[3], "short") || !strings.Contains(lines[4], "123456") {
		t.Errorf("rows wrong: %v", lines[3:])
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "x")
	tb.AddRow(3.14159)
	if !strings.Contains(tb.String(), "3.142") {
		t.Errorf("float not formatted: %q", tb.String())
	}
}

func TestNotes(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow(1)
	tb.AddNote("shape holds: %d > %d", 2, 1)
	if !strings.Contains(tb.String(), "note: shape holds: 2 > 1") {
		t.Errorf("note missing: %q", tb.String())
	}
}

func TestEmptyTitleOmitted(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow(1)
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("no leading blank line expected")
	}
	first := strings.Split(tb.String(), "\n")[0]
	if first != "a" {
		t.Errorf("first line = %q, want header", first)
	}
}
