// Package report renders the paper's tables and figures from campaign
// ledgers: ASCII scatter/line plots for terminals, CSV series for external
// plotting, and formatted tables. One exported function per paper exhibit
// keeps the mapping auditable.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one named curve.
type Series struct {
	Name string
	X, Y []float64
}

// Plot accumulates series and renders them as an ASCII grid, or as one
// grid per panel once Panel has been called.
type Plot struct {
	Title      string
	XLabel     string
	YLabel     string
	LogX, LogY bool
	Width      int
	Height     int
	series     []Series
	panels     []panel
}

// panel is a titled group of consecutive series, from series[first] up
// to the next panel's first.
type panel struct {
	title string
	first int
}

// NewPlot returns a plot with terminal-friendly dimensions.
func NewPlot(title, xlabel, ylabel string) *Plot {
	return &Plot{Title: title, XLabel: xlabel, YLabel: ylabel, Width: 72, Height: 20}
}

// Add appends a series; len(x) must equal len(y).
func (p *Plot) Add(name string, x, y []float64) *Plot {
	p.series = append(p.series, Series{Name: name, X: x, Y: y})
	return p
}

// Panel starts a new panel titled title: the series added after it are
// drawn on a grid of their own, with their own axes, markers and
// legend, below the previous panel's. Series added before the first
// Panel call share an untitled grid. CSV is unaffected.
func (p *Plot) Panel(title string) *Plot {
	p.panels = append(p.panels, panel{title: title, first: len(p.series)})
	return p
}

// markers cycle per series within one grid.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '=', '$', '^', '~'}

// collision marks a cell that two or more series share, so a later
// series cannot hide an earlier one.
const collision = '!'

func (p *Plot) transform(x, y float64) (float64, float64, bool) {
	if p.LogX {
		if x <= 0 {
			return 0, 0, false
		}
		x = math.Log10(x)
	}
	if p.LogY {
		if y <= 0 {
			return 0, 0, false
		}
		y = math.Log10(y)
	}
	return x, y, true
}

// Render draws the plot: its title, then one grid per panel (a single
// grid without panels).
func (p *Plot) Render() string {
	var sb strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&sb, "%s\n", p.Title)
	}
	end := len(p.series)
	if len(p.panels) > 0 {
		end = p.panels[0].first
	}
	if len(p.panels) == 0 || end > 0 {
		p.renderGrid(&sb, p.series[:end])
	}
	for i, pn := range p.panels {
		end := len(p.series)
		if i+1 < len(p.panels) {
			end = p.panels[i+1].first
		}
		if i > 0 || pn.first > 0 {
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "%s\n", pn.title)
		p.renderGrid(&sb, p.series[pn.first:end])
	}
	return sb.String()
}

// renderGrid draws series on one grid scaled to their own ranges, with
// the axes and the legend below it.
func (p *Plot) renderGrid(sb *strings.Builder, series []Series) {
	var xmin, xmax, ymin, ymax float64
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	any := false
	for _, s := range series {
		for i := range s.X {
			x, y, ok := p.transform(s.X[i], s.Y[i])
			if !ok {
				continue
			}
			any = true
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if !any {
		sb.WriteString("(no data)\n")
		return
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, p.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", p.Width))
	}
	owner := make([]int, p.Width*p.Height) // 1 + the series drawn in a cell; 0 is empty
	collided := false
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			x, y, ok := p.transform(s.X[i], s.Y[i])
			if !ok {
				continue
			}
			col := int((x - xmin) / (xmax - xmin) * float64(p.Width-1))
			row := p.Height - 1 - int((y-ymin)/(ymax-ymin)*float64(p.Height-1))
			if row < 0 || row >= p.Height || col < 0 || col >= p.Width {
				continue
			}
			switch cell := &owner[row*p.Width+col]; *cell {
			case 0:
				*cell, grid[row][col] = si+1, mark
			case si + 1:
			default:
				grid[row][col], collided = collision, true
			}
		}
	}
	axisLabel := func(v float64, log bool) string {
		if log {
			return fmt.Sprintf("%.3g", math.Pow(10, v))
		}
		return fmt.Sprintf("%.3g", v)
	}
	for r, line := range grid {
		prefix := "          |"
		if r == 0 {
			prefix = fmt.Sprintf("%10s|", axisLabel(ymax, p.LogY))
		} else if r == p.Height-1 {
			prefix = fmt.Sprintf("%10s|", axisLabel(ymin, p.LogY))
		}
		sb.WriteString(prefix)
		sb.Write(line)
		sb.WriteByte('\n')
	}
	sb.WriteString("          +" + strings.Repeat("-", p.Width) + "\n")
	fmt.Fprintf(sb, "           %-20s%*s\n",
		axisLabel(xmin, p.LogX), p.Width-20, axisLabel(xmax, p.LogX))
	fmt.Fprintf(sb, "           x: %s   y: %s\n", p.XLabel, p.YLabel)
	for si, s := range series {
		fmt.Fprintf(sb, "           %c %s\n", markers[si%len(markers)], s.Name)
	}
	if collided {
		fmt.Fprintf(sb, "           %c two or more series\n", collision)
	}
}

// CSV renders every series as long-form CSV: series,x,y.
func (p *Plot) CSV() string {
	var sb strings.Builder
	sb.WriteString("series,x,y\n")
	for _, s := range p.series {
		for i := range s.X {
			fmt.Fprintf(&sb, "%s,%.10g,%.10g\n", s.Name, s.X[i], s.Y[i])
		}
	}
	return sb.String()
}

// Table renders rows with aligned columns.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// HumanBytes renders a byte count with binary-ish SI units.
func HumanBytes(n int64) string {
	f := float64(n)
	for _, unit := range []string{"B", "KB", "MB", "GB", "TB", "PB"} {
		if f < 1000 {
			return fmt.Sprintf("%.3g %s", f, unit)
		}
		f /= 1000
	}
	return fmt.Sprintf("%.3g EB", f)
}

// Int64s converts to float64 for plotting.
func Int64s(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// SortedIntKeys returns the sorted keys of a map keyed by int.
func SortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
