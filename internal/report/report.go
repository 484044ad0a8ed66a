// Package report renders experiment results the way the paper presents them:
// as text tables (Tables 1-5) and as x/y series with confidence intervals
// (Figures 2-4). Output is plain text and JSON so results can be diffed and
// plotted without external dependencies.
package report

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a titled text table.
type Table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// AddRow appends a row, converting every cell with fmt.Sprint.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = strconv.FormatFloat(v, 'g', 6, 64)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Point is one (x, y) sample with an optional confidence half-width.
type Point struct {
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	HalfWidth float64 `json:"half_width,omitempty"`
}

// Series is one labeled curve of a figure.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Figure is a set of series sharing axes, mirroring one paper figure.
type Figure struct {
	Title  string   `json:"title"`
	XLabel string   `json:"x_label"`
	YLabel string   `json:"y_label"`
	Series []Series `json:"series"`
}

// AddPoint appends a point to the named series, creating it if needed.
func (f *Figure) AddPoint(series string, p Point) {
	for i := range f.Series {
		if f.Series[i].Name == series {
			f.Series[i].Points = append(f.Series[i].Points, p)
			return
		}
	}
	f.Series = append(f.Series, Series{Name: series, Points: []Point{p}})
}

// Render returns the figure as a text table with one row per x value and one
// column per series (the same rows the paper's figures plot).
func (f Figure) Render() string {
	table := Table{Title: f.Title, Headers: []string{f.XLabel}}
	for _, s := range f.Series {
		table.Headers = append(table.Headers, s.Name)
	}
	// Collect the union of x values in order of first appearance.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	for _, x := range xs {
		row := []string{strconv.FormatFloat(x, 'g', 6, 64)}
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					if p.HalfWidth > 0 {
						cell = fmt.Sprintf("%.6g ±%.2g", p.Y, p.HalfWidth)
					} else {
						cell = strconv.FormatFloat(p.Y, 'g', 6, 64)
					}
					break
				}
			}
			row = append(row, cell)
		}
		table.Rows = append(table.Rows, row)
	}
	return table.Render()
}

// SeriesY returns the y values of the named series in x order, or nil when
// the series does not exist.
func (f Figure) SeriesY(name string) []float64 {
	for _, s := range f.Series {
		if s.Name == name {
			ys := make([]float64, len(s.Points))
			for i, p := range s.Points {
				ys[i] = p.Y
			}
			return ys
		}
	}
	return nil
}
