// Package report renders experiment results as aligned text tables and
// ASCII charts, the output format of the paper's figures (vliwsweep
// -figure) and of vliwsweep's text tables.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table writes an aligned text table.
func Table(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(widths))
		for i := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	sep := make([]string, len(widths))
	for i, wd := range widths {
		sep[i] = strings.Repeat("-", wd)
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

// BarChart writes a horizontal ASCII bar chart scaled to width characters.
func BarChart(w io.Writer, title string, labels []string, values []float64, width int) {
	if width < 10 {
		width = 10
	}
	fmt.Fprintf(w, "%s\n", title)
	maxLabel, maxVal := 0, 0.0
	for i, l := range labels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
		if i < len(values) && values[i] > maxVal {
			maxVal = values[i]
		}
	}
	if maxVal <= 0 {
		maxVal = 1
	}
	for i, l := range labels {
		v := 0.0
		if i < len(values) {
			v = values[i]
		}
		n := int(math.Round(v / maxVal * float64(width)))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(w, "  %-*s |%s %.3g\n", maxLabel, l, strings.Repeat("#", n), v)
	}
}

// Scatter writes an ASCII scatter plot of labelled points. Points are
// plotted on a grid; each point is marked with a key letter and the legend
// maps letters to labels. logY plots the Y axis on a log scale.
func Scatter(w io.Writer, title, xName, yName string, labels []string, xs, ys []float64, logY bool) {
	const gw, gh = 64, 18
	fmt.Fprintf(w, "%s  (y: %s, x: %s)\n", title, yName, xName)
	if len(xs) == 0 || len(xs) != len(ys) || len(labels) != len(xs) {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	tx := func(v float64) float64 { return v }
	ty := func(v float64) float64 {
		if logY {
			return math.Log10(math.Max(v, 1e-12))
		}
		return v
	}
	minX, maxX := tx(xs[0]), tx(xs[0])
	minY, maxY := ty(ys[0]), ty(ys[0])
	for i := range xs {
		minX = math.Min(minX, tx(xs[i]))
		maxX = math.Max(maxX, tx(xs[i]))
		minY = math.Min(minY, ty(ys[i]))
		maxY = math.Max(maxY, ty(ys[i]))
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, gh)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", gw))
	}
	for i := range xs {
		c := int((tx(xs[i]) - minX) / (maxX - minX) * float64(gw-1))
		r := gh - 1 - int((ty(ys[i])-minY)/(maxY-minY)*float64(gh-1))
		mark := byte('a' + i%26)
		if i >= 26 {
			mark = byte('A' + (i-26)%26)
		}
		grid[r][c] = mark
	}
	for _, row := range grid {
		fmt.Fprintf(w, "  |%s\n", string(row))
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", gw))
	for i, l := range labels {
		mark := byte('a' + i%26)
		if i >= 26 {
			mark = byte('A' + (i-26)%26)
		}
		fmt.Fprintf(w, "  %c: %-8s x=%-10.4g y=%.4g\n", mark, l, xs[i], ys[i])
	}
}

// Percent formats a percentage with sign.
func Percent(v float64) string { return fmt.Sprintf("%+.1f%%", v) }

// F formats a float with three significant decimals, the house style of
// the result tables.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }
