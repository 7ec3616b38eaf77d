package experiments_test

import (
	"strconv"
	"strings"
	"testing"

	"ixplens/internal/core/churn"
	"ixplens/internal/core/cluster"
	"ixplens/internal/core/hetero"
	. "ixplens/internal/experiments"
	"ixplens/internal/netmodel"
	"ixplens/internal/oracle"
	"ixplens/internal/traffic"
)

// TestReportScaleShapes runs the harness at the report scale (0.01,
// with a reduced sample budget) and asserts the headline shapes of the
// paper hold — the integration-level contract EXPERIMENTS.md documents.
func TestReportScaleShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("report-scale integration test skipped with -short")
	}
	cfg := netmodel.PaperScale(0.01)
	opts := traffic.Options{SamplesPerWeek: 120_000, SamplingRate: 16384, SnapLen: 128}
	r, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	wk, agg, err := r.Week45()
	if err != nil {
		t.Fatal(err)
	}
	// E1: the cascade leaves >98% peering traffic.
	if s := wk.Counts.PeeringShare(); s < 0.975 {
		t.Errorf("peering share %.4f", s)
	}
	// E4: the IXP sees essentially all routed ASes in peering traffic.
	all := agg.Summarize(nil)
	if float64(all.ASes) < 0.95*float64(len(r.Env.World.ASes)) {
		t.Errorf("peering sees only %d of %d ASes", all.ASes, len(r.Env.World.ASes))
	}
	// E6: traffic ranking is DE-led.
	_, byBytes := agg.TopCountries(3, nil)
	if byBytes[0].Key != "DE" {
		t.Errorf("top traffic country %s, want DE", byBytes[0].Key)
	}

	// E16: clustering quality at scale.
	v := oracle.Organizations(r.Env.World, wk.Clusters)
	if v.FalsePositiveRate > 0.08 {
		t.Errorf("clustering FP rate %.3f", v.FalsePositiveRate)
	}
	if s1 := wk.Clusters.ClusteredShare(cluster.Step1); s1 < 0.55 {
		t.Errorf("step-1 share %.3f", s1)
	}

	// E19: the Akamai analog's off-link share sits near the paper's 11%.
	rep, err := r.Fig7bAcmeLinks()
	if err != nil {
		t.Fatal(err)
	}
	off := findPct(t, rep, "traffic NOT via own peering links")
	if off < 3 || off > 30 {
		t.Errorf("acme off-link share %.1f%%", off)
	}

	// E10/E13: churn bands.
	tracker, _, err := r.Tracked()
	if err != nil {
		t.Fatal(err)
	}
	weeks := tracker.Compute()
	last := weeks[len(weeks)-1]
	if s := last.Share(churn.PoolStable); s < 0.12 || s > 0.45 {
		t.Errorf("stable share %.3f", s)
	}
	if s := last.ByteShare(churn.PoolStable); s < last.Share(churn.PoolStable) {
		t.Error("stable pool not traffic-heavy")
	}

	// E18: the megahost AS hosts the most organizations.
	points := hetero.ASHosting(wk.Clusters, 10)
	if len(points) == 0 {
		t.Fatal("no AS hosting points")
	}
	w := r.Env.World
	megaASN := w.ASes[w.Orgs[w.Special.MegaHost].HomeAS].ASN
	if points[0].ASN != megaASN {
		t.Errorf("top hosting AS is %d, megahost is %d", points[0].ASN, megaASN)
	}
}

// findPct extracts the leading percentage from a report row's measured
// value.
func findPct(t *testing.T, rep Report, metric string) float64 {
	t.Helper()
	for _, row := range rep.Rows {
		if row.Metric == metric {
			s := strings.TrimSuffix(row.Measured, "%")
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("unparseable measured value %q", row.Measured)
			}
			return v
		}
	}
	t.Fatalf("metric %q not found", metric)
	return 0
}

// TestServerToServerTrendPositive asserts E22's prediction holds in the
// generated world: the measured m2m share grows between the first and
// last weeks.
func TestServerToServerTrendPositive(t *testing.T) {
	cfg := netmodel.Tiny()
	opts := traffic.Options{SamplesPerWeek: 25_000, SamplingRate: 16384, SnapLen: 128}
	r, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.ServerToServerTrend()
	if err != nil {
		t.Fatal(err)
	}
	series := rep.Series["m2m-share"]
	if len(series) != 2 {
		t.Fatalf("series = %v", series)
	}
	if series[1] <= series[0] {
		t.Fatalf("m2m share did not grow: %.4f -> %.4f", series[0], series[1])
	}
}
