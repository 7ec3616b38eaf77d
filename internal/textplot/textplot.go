// Package textplot renders the reproduction's figure series as plain
// text: sparklines for weekly time series (Fig. 4/5 style), log-log
// scatter plots for the heterogenization clouds (Fig. 6/7 style), and
// descending-share curves (Fig. 2 style). cmd/ixpreport uses it for the
// -series view.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// sparkRunes are the eight block heights of a sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a single-line bar chart, scaled between
// the series' min and max. Empty input yields an empty string.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// Curve renders a descending-share curve (like Fig. 2) as a fixed-width
// downsampled sparkline with min/max annotations.
func Curve(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	ds := downsample(values, width)
	return fmt.Sprintf("%s  (n=%d, head=%.3g, tail=%.3g)",
		Sparkline(ds), len(values), values[0], values[len(values)-1])
}

// downsample reduces values to at most width points by bucket-averaging.
func downsample(values []float64, width int) []float64 {
	if len(values) <= width {
		return values
	}
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := i * len(values) / width
		hi := (i + 1) * len(values) / width
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// ScatterLogLog renders (x, y) points on a log-log grid of the given
// character dimensions, marking cells holding at least one point. Axes
// grow rightward and upward. Non-positive coordinates are clamped to
// the smallest positive value in the series.
func ScatterLogLog(xs, ys []float64, width, height int) string {
	if len(xs) == 0 || len(xs) != len(ys) || width < 2 || height < 2 {
		return ""
	}
	minPos := func(vals []float64) float64 {
		m := math.Inf(1)
		for _, v := range vals {
			if v > 0 && v < m {
				m = v
			}
		}
		if math.IsInf(m, 1) {
			m = 1
		}
		return m
	}
	clampLog := func(v, floor float64) float64 {
		if v < floor {
			v = floor
		}
		return math.Log10(v)
	}
	fx, fy := minPos(xs), minPos(ys)
	lx0, lx1 := math.Inf(1), math.Inf(-1)
	ly0, ly1 := math.Inf(1), math.Inf(-1)
	for i := range xs {
		lx := clampLog(xs[i], fx)
		ly := clampLog(ys[i], fy)
		lx0, lx1 = math.Min(lx0, lx), math.Max(lx1, lx)
		ly0, ly1 = math.Min(ly0, ly), math.Max(ly1, ly)
	}
	if lx1 == lx0 {
		lx1 = lx0 + 1
	}
	if ly1 == ly0 {
		ly1 = ly0 + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for i := range xs {
		cx := int((clampLog(xs[i], fx) - lx0) / (lx1 - lx0) * float64(width-1))
		cy := int((clampLog(ys[i], fy) - ly0) / (ly1 - ly0) * float64(height-1))
		grid[height-1-cy][cx] = '*'
	}
	var b strings.Builder
	for r, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		if r < len(grid)-1 {
			b.WriteByte('\n')
		}
	}
	b.WriteString(fmt.Sprintf("\n  +%s\n   x: %.3g..%.3g (log)  y: %.3g..%.3g (log), %d points",
		strings.Repeat("-", width), math.Pow(10, lx0), math.Pow(10, lx1),
		math.Pow(10, ly0), math.Pow(10, ly1), len(xs)))
	return b.String()
}
