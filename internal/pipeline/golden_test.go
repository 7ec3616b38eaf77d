package pipeline

import (
	"context"
	"reflect"
	"testing"

	"ixplens/internal/core/churn"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/visibility"
	"ixplens/internal/faultline"
	"ixplens/internal/geo"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/traffic"
)

func goldenEnv(t testing.TB) *Env {
	t.Helper()
	env, err := NewEnv(netmodel.Tiny(),
		traffic.Options{SamplesPerWeek: 4000, SamplingRate: 16384, SnapLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// analyzeAt streams one week through the one driver at an explicit
// classifier pool size: workers=1 is the serial reference, more fans
// records into per-worker analyzer shards merged deterministically
// inside Finish.
func analyzeAt(t testing.TB, env *Env, wk, workers int) *Week {
	t.Helper()
	week, err := env.analyzeWeek(context.Background(), wk, workers)
	if err != nil {
		t.Fatalf("week %d at %d workers: %v", wk, workers, err)
	}
	return week
}

// TestGoldenShardedMatchesSerial is the driver's equivalence proof:
// over every study week, the four-worker pool (records fanned into
// per-worker analyzer shards) must produce results bit-identical to the
// serial reference — cascade counts, identification aggregates,
// visibility and link products alike.
func TestGoldenShardedMatchesSerial(t *testing.T) {
	env := goldenEnv(t)
	cfg := &env.World.Cfg
	for wk := cfg.FirstWeek; wk <= cfg.LastWeek(); wk++ {
		serial := analyzeAt(t, env, wk, 1)
		sharded := analyzeAt(t, env, wk, 4)
		if serial.Counts != sharded.Counts {
			t.Fatalf("week %d counts diverged:\nserial  %+v\nsharded %+v",
				wk, serial.Counts, sharded.Counts)
		}
		if !reflect.DeepEqual(serial.Servers, sharded.Servers) {
			t.Fatalf("week %d identification diverged: %d vs %d servers, %d vs %d bytes",
				wk, len(serial.Servers.Servers), len(sharded.Servers.Servers),
				serial.Servers.ServerBytes, sharded.Servers.ServerBytes)
		}
		if !reflect.DeepEqual(serial.Visibility, sharded.Visibility) ||
			!reflect.DeepEqual(serial.Links, sharded.Links) {
			t.Fatalf("week %d visibility or links products diverged", wk)
		}
	}
}

// TestGoldenTrackWeeksMatchesWorldResolved pins the churn series
// TrackWeeks builds — weeks analysed concurrently, each through its own
// entity table, joined by IP through each week's attributes — against a
// reference: every week analysed serially with the full registry, its
// servers resolved straight through the world's RIB and geo DB. All 17
// observations, the computed series and the per-member counts must be
// equal.
func TestGoldenTrackWeeksMatchesWorldResolved(t *testing.T) {
	env := goldenEnv(t)
	ctx := context.Background()
	tracker, results, _, err := env.TrackWeeks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rib, gdb := env.World.RIB(), env.World.GeoDB()
	ref := churn.NewTracker()
	members := map[int32]bool{}
	for i, res := range results {
		prods, _, _, err := env.streamWeek(ctx, env.Gen, env.Registry(), env.AnalysisContext(), res.Week, 1)
		if err != nil {
			t.Fatal(err)
		}
		serial := prods.Webserver()
		if !reflect.DeepEqual(serial, res) {
			t.Fatalf("week %d: TrackWeeks' identification differs from the serial run's", res.Week)
		}
		obs := churn.WeekObservation{Week: serial.Week, EstLoss: serial.EstLoss,
			Servers: make(map[packet.IPv4Addr]churn.ServerObs, len(serial.Servers))}
		for ip, srv := range serial.Servers {
			route, _ := rib.Lookup(ip)
			obs.Servers[ip] = churn.ServerObs{Bytes: srv.Bytes, ASN: route.ASN, Prefix: route.Prefix,
				Region: geo.Region(gdb.Lookup(ip)), HTTPS: srv.HTTPS, Member: srv.Member}
			members[srv.Member] = true
		}
		if !reflect.DeepEqual(*tracker.Week(i), obs) {
			t.Fatalf("week %d: observation differs from the world-resolved one", res.Week)
		}
		if err := ref.Add(obs); err != nil {
			t.Fatal(err)
		}
	}
	if tracker.NumWeeks() != env.World.Cfg.Weeks {
		t.Fatalf("tracked %d weeks, want %d", tracker.NumWeeks(), env.World.Cfg.Weeks)
	}
	got := tracker.Compute()
	if !reflect.DeepEqual(got, ref.Compute()) {
		t.Fatal("churn series differs from the world-resolved reference")
	}
	if last := got[len(got)-1]; last.Total() == 0 || last.Share(churn.PoolStable) == 0 || last.TotalASes == 0 {
		t.Fatalf("degenerate final week: %+v", last)
	}
	if len(members) < 2 {
		t.Fatalf("servers behind %d members: no member series to compare", len(members))
	}
	for m := range members {
		if g, w := tracker.CountByMember(m), ref.CountByMember(m); !reflect.DeepEqual(g, w) {
			t.Fatalf("member %d: CountByMember %v, want %v", m, g, w)
		}
	}
}

// TestGoldenAnalyzeWeekAggregates compares the full heavy pipeline:
// the streamed AnalyzeWeek on a four-worker pool against the buffered
// (serial-observer) path, including the clustering built on interned
// authority IDs. Cluster IP orderings are iteration-order dependent
// upstream of this package, so sizes and aggregates are compared, not
// orderings.
func TestGoldenAnalyzeWeekAggregates(t *testing.T) {
	env := goldenEnv(t)
	ctx := context.Background()
	const wk = 45

	// The buffered side: a test-held copy of the week fed through the
	// one driver's serial reference.
	buf, _ := BufferWeek(t, env, wk)
	prods, counts, err := env.AnalyzeFeed(ctx, wk, 1, buf.Feed)
	if err != nil {
		t.Fatal(err)
	}
	_, cov, clusters := env.Organizations(prods.Webserver())
	buffered := &Week{Servers: prods.Webserver(), Counts: counts, Coverage: cov, Clusters: clusters}
	streamed := analyzeAt(t, env, wk, 4)

	if !reflect.DeepEqual(buffered.Servers, streamed.Servers) {
		t.Fatal("identification diverged between buffered and streamed AnalyzeWeek")
	}
	if buffered.Counts != streamed.Counts {
		t.Fatalf("counts diverged:\nbuffered %+v\nstreamed %+v", buffered.Counts, streamed.Counts)
	}
	if buffered.Coverage != streamed.Coverage {
		t.Fatalf("metadata coverage diverged: %+v vs %+v", buffered.Coverage, streamed.Coverage)
	}
	bc, sc := buffered.Clusters, streamed.Clusters
	if !reflect.DeepEqual(bc.StepIPs, sc.StepIPs) {
		t.Fatalf("step populations diverged: %+v vs %+v", bc.StepIPs, sc.StepIPs)
	}
	if !reflect.DeepEqual(bc.SharedAuthorities, sc.SharedAuthorities) {
		t.Fatal("shared-authority sets diverged")
	}
	if len(bc.Clusters) != len(sc.Clusters) {
		t.Fatalf("cluster counts diverged: %d vs %d", len(bc.Clusters), len(sc.Clusters))
	}
	for auth, b := range bc.Clusters {
		s := sc.Clusters[auth]
		if s == nil {
			t.Fatalf("cluster %q missing from streamed result", auth)
		}
		if len(b.IPs) != len(s.IPs) || b.Bytes != s.Bytes {
			t.Fatalf("cluster %q diverged: %d IPs/%d bytes vs %d IPs/%d bytes",
				auth, len(b.IPs), b.Bytes, len(s.IPs), s.Bytes)
		}
		if !reflect.DeepEqual(b.ASNs, s.ASNs) {
			t.Fatalf("cluster %q AS footprint diverged", auth)
		}
	}
	for ip, b := range bc.ByServer {
		if s, ok := sc.ByServer[ip]; !ok || s != b {
			t.Fatalf("assignment of %v diverged: %+v vs %+v", ip, b, sc.ByServer[ip])
		}
	}

	// Visibility summaries must not depend on whether the aggregator owns
	// its interning table or is handed one.
	private := visibility.NewAggregator(env.World.RIB(), env.World.GeoDB())
	shared := visibility.NewAggregatorWith(env.EntityTable())
	if _, err := dissect.ProcessSharded(ctx, buf.Source(), env.Fabric, 1, func(_ int, rec *dissect.Record, _ uint64) {
		private.Observe(rec)
		shared.Observe(rec)
	}, nil); err != nil {
		t.Fatal(err)
	}
	if p, s := private.Summarize(nil), shared.Summarize(nil); p != s {
		t.Fatalf("visibility summaries diverged:\nprivate %+v\nshared  %+v", p, s)
	}
	pIPs, pBytes := private.TopCountries(10, nil)
	sIPs, sBytes := shared.TopCountries(10, nil)
	if !reflect.DeepEqual(pIPs, sIPs) || !reflect.DeepEqual(pBytes, sBytes) {
		t.Fatal("country rankings diverged between private and shared tables")
	}
}

// TestGoldenDeterministicAcrossRuns runs the four-worker pool twice
// over the same week: concurrent shard assignment must not leak into
// the result.
func TestGoldenDeterministicAcrossRuns(t *testing.T) {
	env := goldenEnv(t)
	first := analyzeAt(t, env, 40, 4)
	second := analyzeAt(t, env, 40, 4)
	if first.Counts != second.Counts {
		t.Fatalf("counts diverged across runs: %+v vs %+v", first.Counts, second.Counts)
	}
	if !reflect.DeepEqual(first.Servers, second.Servers) {
		t.Fatal("sharded identification not deterministic across runs")
	}
}

// TestGoldenFaultedWeek repeats the equivalence under deterministic
// fault injection: the fault paths must stay byte-identical too.
func TestGoldenFaultedWeek(t *testing.T) {
	env := goldenEnv(t)
	env.Faults = &faultline.Config{Seed: 11, Drop: 0.05, Duplicate: 0.02, Reorder: 0.03}
	serial := analyzeAt(t, env, 38, 1)
	sharded := analyzeAt(t, env, 38, 4)
	if serial.Counts != sharded.Counts {
		t.Fatalf("faulted counts diverged: %+v vs %+v", serial.Counts, sharded.Counts)
	}
	if serial.EstLoss == 0 {
		t.Fatal("fault injection produced no estimated loss")
	}
	if !reflect.DeepEqual(serial.Servers, sharded.Servers) {
		t.Fatal("faulted-week identification diverged between serial and sharded paths")
	}
}
