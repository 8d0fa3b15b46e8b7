package bench

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is a simple aligned text table used for all experiment output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a footnote line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteString("\n")
		sb.WriteString(strings.Repeat("=", len(t.Title)))
		sb.WriteString("\n")
	}
	// Widths count runes, so a cell such as "wBFS†" aligns.
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
			}
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: ")
		sb.WriteString(n)
		sb.WriteString("\n")
	}
	return sb.String()
}

// fmtDur renders a duration in seconds with 3+ significant digits, like the
// paper's tables.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.4g", d.Seconds())
}

// fmtRatio renders a slowdown/speedup factor.
func fmtRatio(r float64) string {
	return fmt.Sprintf("%.2f", r)
}

// fmtResult renders a RunResult cell.
func fmtResult(r RunResult) string {
	switch {
	case r.Unsupported:
		return "--"
	case r.Err != nil:
		return "err:" + r.Err.Error()
	default:
		return fmtDur(r.Time)
	}
}
