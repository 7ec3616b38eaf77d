package textplot

import (
	"strings"
	"testing"
)

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty input must yield empty output")
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if s != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp sparkline = %q", s)
	}
	flat := Sparkline([]float64{5, 5, 5})
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", flat)
	}
	if n := len([]rune(Sparkline(make([]float64, 17)))); n != 17 {
		t.Fatalf("length %d, want 17", n)
	}
}

func TestCurve(t *testing.T) {
	if Curve(nil, 10) != "" || Curve([]float64{1}, 0) != "" {
		t.Fatal("degenerate inputs must yield empty output")
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i)
	}
	got := Curve(vals, 20)
	if !strings.Contains(got, "n=100") || !strings.Contains(got, "head=100") {
		t.Fatalf("curve annotation missing: %q", got)
	}
	if n := len([]rune(strings.Fields(got)[0])); n != 20 {
		t.Fatalf("curve width %d, want 20", n)
	}
}

func TestDownsample(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if got := downsample(vals, 8); len(got) != 4 {
		t.Fatal("short input must pass through")
	}
	got := downsample([]float64{1, 1, 3, 3}, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("downsample = %v", got)
	}
}

func TestScatterLogLog(t *testing.T) {
	if ScatterLogLog(nil, nil, 10, 5) != "" {
		t.Fatal("empty scatter must be empty")
	}
	if ScatterLogLog([]float64{1}, []float64{1, 2}, 10, 5) != "" {
		t.Fatal("mismatched lengths must be empty")
	}
	xs := []float64{1, 10, 100, 1000}
	ys := []float64{1, 5, 20, 80}
	got := ScatterLogLog(xs, ys, 20, 6)
	if strings.Count(got, "*") < 3 {
		t.Fatalf("scatter lost points:\n%s", got)
	}
	if !strings.Contains(got, "4 points") {
		t.Fatalf("point count missing:\n%s", got)
	}
	// A log-log diagonal: the first row (top) must hold the largest y.
	lines := strings.Split(got, "\n")
	if !strings.Contains(lines[0], "*") {
		t.Fatalf("top row empty:\n%s", got)
	}
	// Zero/negative values are clamped, not dropped.
	got = ScatterLogLog([]float64{0, 1}, []float64{-1, 1}, 10, 4)
	if !strings.Contains(got, "2 points") {
		t.Fatalf("clamping broken:\n%s", got)
	}
}
