// Package report renders fixed-width text tables for the benchmark harness
// and CLIs — the rows the paper-shaped experiment output is printed in.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows under a header and renders them aligned.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a free-text footnote rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(cell)
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", pad))
		}
		b.WriteString("\n")
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}
