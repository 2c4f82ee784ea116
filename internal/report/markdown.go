package report

// Markdown rendering: the same tables the CLIs print as fixed-width text
// render as GitHub pipe tables, and Doc assembles whole documents
// (EXPERIMENTS.md, DESIGN.md) from headings, paragraphs, tables, and
// checklists. Every byte is a pure function of the inputs — no clocks, no
// map iteration — so regenerating a document from unchanged inputs is
// byte-identical, which is what lets CI fail on drift.

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// mdCell makes one table cell safe inside a pipe table: pipes are escaped
// and line breaks collapse to spaces.
func mdCell(s string) string {
	s = strings.ReplaceAll(s, "\n", " ")
	return strings.ReplaceAll(s, "|", "\\|")
}

// Markdown writes t as a GitHub pipe table, columns padded so the source
// stays readable. The title renders as a bold lead-in line and notes as
// italicised footnotes.
func (t *Table) Markdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	headers := make([]string, len(t.headers))
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		headers[i] = mdCell(h)
		widths[i] = utf8.RuneCountInString(headers[i])
		if widths[i] < 3 { // room for the --- separator
			widths[i] = 3
		}
	}
	rows := make([][]string, len(t.rows))
	for r, row := range t.rows {
		rows[r] = make([]string, len(row))
		for i, cell := range row {
			rows[r][i] = mdCell(cell)
			if n := utf8.RuneCountInString(rows[r][i]); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		b.WriteString("|")
		for i := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			b.WriteString(" ")
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell)))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	line(headers)
	sep := make([]string, len(widths))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "\n*note: %s*\n", mdCell(n))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Doc assembles a markdown document as a flat sequence of blocks —
// headings, paragraphs, tables, code fences, list items — with one blank
// line between blocks and none between consecutive list items. It exists
// for generated documents, so its output is deterministic by construction.
type Doc struct {
	b      strings.Builder
	inList bool
}

// NewDoc returns an empty document.
func NewDoc() *Doc { return &Doc{} }

// block separates a new non-list block from whatever came before.
func (d *Doc) block() {
	d.inList = false
	if d.b.Len() > 0 {
		d.b.WriteString("\n")
	}
}

// Heading writes a level-n heading (clamped to 1..6).
func (d *Doc) Heading(level int, format string, args ...any) {
	if level < 1 {
		level = 1
	}
	if level > 6 {
		level = 6
	}
	d.block()
	fmt.Fprintf(&d.b, "%s %s\n", strings.Repeat("#", level), fmt.Sprintf(format, args...))
}

// Para writes one paragraph.
func (d *Doc) Para(format string, args ...any) {
	d.block()
	fmt.Fprintf(&d.b, "%s\n", fmt.Sprintf(format, args...))
}

// Bullet writes one list item; consecutive items form one list.
func (d *Doc) Bullet(format string, args ...any) {
	if !d.inList {
		d.block()
		d.inList = true
	}
	fmt.Fprintf(&d.b, "- %s\n", fmt.Sprintf(format, args...))
}

// Check writes one task-list item: `- [x] name` when pass, `- [ ] name
// — FAIL` otherwise. Like Bullet, consecutive checks form one list.
func (d *Doc) Check(name string, pass bool) {
	if !d.inList {
		d.block()
		d.inList = true
	}
	if pass {
		fmt.Fprintf(&d.b, "- [x] %s\n", name)
	} else {
		fmt.Fprintf(&d.b, "- [ ] %s — FAIL\n", name)
	}
}

// Table embeds t as a pipe table.
func (d *Doc) Table(t *Table) {
	d.block()
	_ = t.Markdown(&d.b)
}

// Code writes a fenced code block.
func (d *Doc) Code(lang, body string) {
	d.block()
	fmt.Fprintf(&d.b, "```%s\n%s", lang, body)
	if !strings.HasSuffix(body, "\n") {
		d.b.WriteString("\n")
	}
	d.b.WriteString("```\n")
}

// Raw appends s verbatim as its own block.
func (d *Doc) Raw(s string) {
	d.block()
	d.b.WriteString(s)
	if !strings.HasSuffix(s, "\n") {
		d.b.WriteString("\n")
	}
}

// String returns the document.
func (d *Doc) String() string { return d.b.String() }
