package pipeline_test

import (
	"context"
	"strings"
	"testing"

	"ixplens/internal/netmodel"
	"ixplens/internal/obs"
	. "ixplens/internal/pipeline"
	"ixplens/internal/sflow"
	"ixplens/internal/traffic"
)

func newEnv(t testing.TB) *Env {
	t.Helper()
	env, err := NewEnv(netmodel.Tiny(), traffic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvRejectsBadConfig(t *testing.T) {
	cfg := netmodel.Tiny()
	cfg.Weeks = 0
	if _, err := NewEnv(cfg, traffic.DefaultOptions()); err == nil {
		t.Fatal("invalid config must fail")
	}
}

func TestAnalyzeWeekEndToEnd(t *testing.T) {
	env := newEnv(t)
	wk, err := env.AnalyzeWeek(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	if wk.ISOWeek != 45 {
		t.Fatalf("week = %d", wk.ISOWeek)
	}
	if wk.Counts.Total != wk.Truth.Samples {
		t.Fatalf("dissect total %d != truth %d", wk.Counts.Total, wk.Truth.Samples)
	}
	if len(wk.Servers.Servers) == 0 || len(wk.Metas) == 0 || len(wk.Clusters.Clusters) == 0 {
		t.Fatal("pipeline stages empty")
	}
	// A second pass over a buffered copy of the same week must agree.
	buf, _ := BufferWeek(t, env, 45)
	prods, _, err := env.AnalyzeFeed(context.Background(), 45, 1, buf.Feed)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prods.Webserver().Servers); n != len(wk.Servers.Servers) {
		t.Fatalf("re-analysis differs: %d vs %d servers", n, len(wk.Servers.Servers))
	}
}

func TestObservationResolvesEverything(t *testing.T) {
	env := newEnv(t)
	wk, err := env.AnalyzeWeek(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	res := wk.Servers
	obs := env.Observation(res)
	if obs.Week != 45 || len(obs.Servers) != len(res.Servers) {
		t.Fatal("observation shape wrong")
	}
	for ip, so := range obs.Servers {
		if so.ASN == 0 {
			t.Fatalf("server %v without ASN", ip)
		}
		if so.Region == "" {
			t.Fatalf("server %v without region", ip)
		}
	}
}

// TestRunsShareNoTable: every analysis run interns into its own entity
// table, so after two consecutive runs the newest run's table — read
// through entity_table_ips — holds only its own week's IPs, as many as
// when that week is analysed alone.
func TestRunsShareNoTable(t *testing.T) {
	ctx := context.Background()
	tableIPs := func(weeks ...int) int64 {
		env := newEnv(t)
		reg := obs.NewRegistry()
		env.Instrument(reg)
		for _, wk := range weeks {
			feed := func(emit func(*sflow.Datagram) error) error {
				_, err := env.EachDatagram(ctx, wk, emit)
				return err
			}
			if _, _, err := env.AnalyzeFeed(ctx, wk, 1, feed); err != nil {
				t.Fatal(err)
			}
		}
		return reg.Gauge("entity_table_ips").Value()
	}
	alone, after := tableIPs(41), tableIPs(40, 41)
	if alone == 0 {
		t.Fatal("week 41 interned no IPs")
	}
	if after != alone {
		t.Fatalf("after weeks 40 and 41 the newest table holds %d IPs; week 41 alone interns %d", after, alone)
	}
}

func TestAlexaListAvailable(t *testing.T) {
	env := newEnv(t)
	l := env.AlexaList(45)
	if len(l.Domains) == 0 {
		t.Fatal("empty alexa list")
	}
}

func TestEnvString(t *testing.T) {
	env := newEnv(t)
	s := env.String()
	if !strings.Contains(s, "ASes=") || !strings.Contains(s, "servers=") {
		t.Fatalf("String() = %q", s)
	}
}

// TestInstrumentedPipelineConsistency attaches a registry and checks
// that the cross-stage invariants the metrics promise actually hold:
// every exported sample is classified exactly once, the crawl funnel
// matches the identification result, and TrackWeeks times every week.
func TestInstrumentedPipelineConsistency(t *testing.T) {
	env := newEnv(t)
	reg := obs.NewRegistry()
	env.Instrument(reg)

	wk, err := env.AnalyzeWeek(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	res, counts := wk.Servers, wk.Counts
	samples := reg.Counter("ixp_samples_total").Value()
	records := reg.Counter("dissect_records_total").Value()
	if samples == 0 || samples != records {
		t.Fatalf("exported %d samples but classified %d records", samples, records)
	}
	if records != uint64(counts.Total) {
		t.Fatalf("metrics saw %d records, tallies %d", records, counts.Total)
	}
	if got := reg.Counter("webserver_crawl_attempts_total").Value(); got != uint64(res.Candidates443) {
		t.Fatalf("crawl attempts %d != candidates %d", got, res.Candidates443)
	}
	if reg.Counter("ixp_flushes_total").Value() == 0 {
		t.Fatal("no collector flushes recorded")
	}
	if reg.Counter("ixp_buffer_reuses_total").Value() == 0 {
		t.Fatal("streaming path did not record buffer reuse")
	}
	if reg.Counter("webserver_hosts_extracted_total").Value() == 0 {
		t.Fatal("no Host headers recorded")
	}

	// TrackWeeks on a freshly instrumented env: one timing observation
	// per week, and a utilization figure in (0, 100].
	env.Instrument(reg)
	if _, _, _, err := env.TrackWeeks(context.Background()); err != nil {
		t.Fatal(err)
	}
	weeks := uint64(env.World.Cfg.Weeks)
	if got := reg.Counter("pipeline_weeks_total").Value(); got != weeks {
		t.Fatalf("timed %d weeks, world has %d", got, weeks)
	}
	if got := reg.Histogram("pipeline_week_ns").Count(); got != weeks {
		t.Fatalf("week histogram has %d observations, want %d", got, weeks)
	}
	util := reg.Gauge("pipeline_worker_utilization_pct").Value()
	if util <= 0 || util > 100 {
		t.Fatalf("worker utilization %d%% out of range", util)
	}

	// Detaching must stop the counters moving.
	env.Instrument(nil)
	before := reg.Counter("ixp_samples_total").Value()
	if _, err := env.AnalyzeWeek(context.Background(), 46); err != nil {
		t.Fatal(err)
	}
	if after := reg.Counter("ixp_samples_total").Value(); after != before {
		t.Fatal("detached env still updated metrics")
	}
}
