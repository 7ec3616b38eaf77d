package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileRankRounding(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: percentile must sort
		}
		return v
	}
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0.99, 1},
		{3, 0.50, 2},
		{3, 0.99, 3},     // rank ceil(2.97) = 3: the maximum
		{4, 0.50, 2},     // nearest rank, not interpolated
		{99, 0.99, 99},   // ceil(98.01) = 99
		{100, 0.99, 99},  // exactly rank 99, not pushed to 100 by float error
		{101, 0.99, 100}, // ceil(99.99) = 100
		{200, 0.99, 198},
		{1000, 0.999, 999},
		{10, 0, 1}, // rank clamps to 1
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty input must give NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 60},
		{[]float64{2.5, 3.1, 2.9, 3.0, 2.7}, 2.6, 3.05},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestParseObsText(t *testing.T) {
	// The shape obs.Registry.WriteText prints, inside the other stderr
	// lines ixpmine -debug-addr emits around it.
	in := `debug endpoint: http://127.0.0.1:41233/debug/vars

metrics snapshot:
counter  entity_intern_hits_total                         2162669
counter  crawl_validate_fail{reason=expired}              12
gauge    supervise_breaker_state                          -1
gauge    entity_table_ips                                 89841
hist     supervise_stage_ns                               count=34 sum=2137749700 mean=62874991.2 p50≤67108863 p90≤134217727 p99≤134217727
hist     empty_ns                                         count=0 sum=0 mean=0.0 p50≤0 p90≤0 p99≤0
`
	o, err := parseObsText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if o.Counters["entity_intern_hits_total"] != 2162669 || o.Counters["crawl_validate_fail{reason=expired}"] != 12 {
		t.Errorf("counters = %v", o.Counters)
	}
	if o.Gauges["supervise_breaker_state"] != -1 || o.Gauges["entity_table_ips"] != 89841 {
		t.Errorf("gauges = %v", o.Gauges)
	}
	if h := o.Hists["supervise_stage_ns"]; h.Count != 34 || h.Sum != 2137749700 {
		t.Errorf("hist = %+v", h)
	}
	if _, ok := o.Hists["empty_ns"]; !ok {
		t.Error("empty histogram dropped")
	}
	if len(o.Counters) != 2 || len(o.Gauges) != 2 || len(o.Hists) != 2 {
		t.Errorf("non-metric lines were parsed: %+v", o)
	}
	if _, err := parseObsText(strings.NewReader("counter  x  notanumber\n")); err == nil {
		t.Error("malformed counter accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	// parent 0..100 with children 10..30, 20..50 (overlapping: union
	// 10..50), 60..70, and 90..120 (clipped to the parent: 90..100).
	// Covered 40 + 10 + 10 = 60, self 40. The grandchild 12..18 only
	// reduces its own parent.
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Name: "child", Start: 10, End: 30, Parent: 1},
		{ID: 3, Name: "child", Start: 20, End: 50, Parent: 1},
		{ID: 4, Name: "child", Start: 60, End: 70, Parent: 1},
		{ID: 5, Name: "child", Start: 90, End: 120, Parent: 1},
		{ID: 6, Name: "grandchild", Start: 12, End: 18, Parent: 2},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 14, 3: 30, 4: 10, 5: 30, 6: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	kids := selfByName(spans)["child"]
	if len(kids) != 4 || kids[0] != 14 {
		t.Errorf("selfByName = %v", kids)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("root", 0, 0)
	d := tr.time("leaf", root, 45, func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Week != 45 || spans[1].Workload != "w" {
		t.Fatalf("spans = %+v", spans)
	}
	if d < 2*time.Millisecond || selfTimes(spans)[root] > spans[0].dur()-d {
		t.Errorf("leaf %v not subtracted from root %v", d, spans[0].dur())
	}
	path := t.TempDir() + "/trace.jsonl"
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var s span
	if len(lines) != 2 || json.Unmarshal([]byte(lines[1]), &s) != nil || s.Name != "leaf" {
		t.Errorf("trace file = %q", b)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "campaign_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "req_per_s", Better: "higher", Bound: 0.10}
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{6, 14, 8, 12, 10, 5, 15, 9, 11, 10}
	cases := []struct {
		name     string
		def      metricDef
		old, new []float64
		want     string
	}{
		{"same", lower, base, base, "unchanged"},
		{"small drift inside the bound", lower, base, scale(1.03), "unchanged"},
		{"slower beyond the bound", lower, base, scale(1.2), "regressed"},
		{"faster on every pair", lower, base, scale(0.8), "improved"},
		{"higher is better: more is improved", higher, base, scale(1.2), "improved"},
		{"higher is better: less is regressed", higher, base, scale(0.8), "regressed"},
		{"spread wider than the bound", lower, noisy, scale(1.0), "unresolved"},
		{"worse median but noise hides it", lower, noisy, []float64{13, 7, 16, 9, 12, 14, 6, 15, 10, 12}, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(c.def, c.old, c.new).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json is what the driver reads; the catalogues in this
// package are what the harness reports. They must name the same things.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, catalogue has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalogue has %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the catalogue (must be in (0, 0.25])", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}
