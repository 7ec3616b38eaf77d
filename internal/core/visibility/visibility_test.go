package visibility_test

import (
	"context"
	"testing"

	"ixplens/internal/analysis"
	"ixplens/internal/core/dissect"
	. "ixplens/internal/core/visibility"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/routing"
	"ixplens/internal/traffic"
)

type weekView struct {
	env *pipeline.Env
	wk  *pipeline.Week
	agg *Aggregator
}

// observeWeek classifies week 45 as the Env generates it, on the
// driver's serial reference, handing every record to obs.
func observeWeek(t testing.TB, env *pipeline.Env, obs dissect.ShardObserver) {
	t.Helper()
	sp := dissect.NewShardedStreamProcessor(context.Background(), env.Fabric, 1, obs, nil)
	_, err := env.EachDatagram(context.Background(), 45, sp.Add)
	sp.Close()
	if err != nil {
		t.Fatal(err)
	}
}

func buildView(t testing.TB) *weekView {
	t.Helper()
	env, err := pipeline.NewEnv(netmodel.Tiny(), traffic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(env.World.RIB(), env.World.GeoDB())
	reg, err := analysis.Select(analysis.NameWebserver)
	if err != nil {
		t.Fatal(err)
	}
	run := reg.NewRun(env.AnalysisContext(), 1)
	observeWeek(t, env, func(w int, rec *dissect.Record, seq uint64) {
		agg.Observe(rec)
		run.Observe(w, rec, seq)
	})
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	return &weekView{env: env, wk: &pipeline.Week{Servers: prods.Webserver()}, agg: agg}
}

func (v *weekView) serverFilter() func(packet.IPv4Addr) bool {
	return func(ip packet.IPv4Addr) bool {
		_, ok := v.wk.Servers.Servers[ip]
		return ok
	}
}

func TestTable1Shapes(t *testing.T) {
	v := buildView(t)
	all := v.agg.Summarize(nil)
	srv := v.agg.Summarize(v.serverFilter())

	if all.IPs == 0 || srv.IPs == 0 {
		t.Fatal("empty summaries")
	}
	if srv.IPs >= all.IPs {
		t.Fatal("server IPs must be a subset of all IPs")
	}
	// Paper Table 1 shapes: the IXP sees essentially all routed ASes in
	// the peering traffic, roughly half in the server traffic.
	routedASes := len(v.env.World.ASes)
	if float64(all.ASes) < 0.85*float64(routedASes) {
		t.Fatalf("peering sees %d of %d ASes", all.ASes, routedASes)
	}
	if float64(srv.ASes) < 0.2*float64(routedASes) || srv.ASes >= all.ASes {
		t.Fatalf("server traffic sees %d of %d ASes", srv.ASes, routedASes)
	}
	if srv.Prefixes >= all.Prefixes {
		t.Fatal("server prefixes must be fewer than peering prefixes")
	}
	if srv.Countries > all.Countries {
		t.Fatal("server countries cannot exceed peering countries")
	}
	// Server traffic is >70% of peering traffic in the paper; the
	// summary counts both endpoints so compare loosely.
	if srv.Bytes*10 < all.Bytes*3 {
		t.Fatalf("server traffic %.2f%% of peering too low",
			100*float64(srv.Bytes)/float64(all.Bytes))
	}
}

func TestTable2TopContributors(t *testing.T) {
	v := buildView(t)
	byIPs, byBytes := v.agg.TopCountries(10, nil)
	if len(byIPs) != 10 || len(byBytes) != 10 {
		t.Fatalf("top-10 lengths: %d, %d", len(byIPs), len(byBytes))
	}
	for i := 1; i < len(byIPs); i++ {
		if byIPs[i].Count > byIPs[i-1].Count {
			t.Fatal("byIPs not sorted")
		}
	}
	// The traffic ranking must be euro-centric: DE first (the IXP's
	// home country dominates traffic in Table 2).
	if byBytes[0].Key != "DE" {
		t.Fatalf("top traffic country = %s, want DE", byBytes[0].Key)
	}
	// The big eyeball countries must appear in the IP ranking.
	seen := map[string]bool{}
	for _, s := range byIPs {
		seen[s.Key] = true
	}
	if !seen["US"] || !seen["DE"] {
		t.Fatalf("US/DE missing from top IP countries: %+v", byIPs)
	}

	srvIPs, srvBytes := v.agg.TopCountries(10, v.serverFilter())
	if len(srvIPs) == 0 || len(srvBytes) == 0 {
		t.Fatal("server country rankings empty")
	}
	if srvIPs[0].Key != "DE" && srvIPs[1].Key != "DE" {
		t.Fatalf("DE not among top-2 server countries: %+v", srvIPs[:3])
	}
}

func TestTable2TopNetworks(t *testing.T) {
	v := buildView(t)
	w := v.env.World
	_, byBytes := v.agg.TopASNs(10, v.serverFilter())
	if len(byBytes) != 10 {
		t.Fatalf("top networks length %d", len(byBytes))
	}
	// The Akamai-analog's home AS must rank at the very top of server
	// traffic (Table 2: Akamai first).
	acmeASN := w.ASes[w.Orgs[w.Special.AcmeCDN].HomeAS].ASN
	found := false
	for _, s := range byBytes[:3] {
		if s.ASN == acmeASN {
			found = true
		}
	}
	if !found {
		t.Fatalf("acme AS%d not in top-3 server traffic networks: %+v", acmeASN, byBytes[:3])
	}
}

func TestTable3LocalGlobal(t *testing.T) {
	v := buildView(t)
	w := v.env.World
	var members []uint32
	for i := range w.ASes {
		if w.ASes[i].IsMemberInWeek(45) {
			members = append(members, w.ASes[i].ASN)
		}
	}
	classes := w.ASGraph().Classify(members)
	bd := v.agg.LocalGlobal(classes, nil)

	checkSum := func(name string, v [3]float64) {
		sum := v[0] + v[1] + v[2]
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s shares sum to %v", name, sum)
		}
	}
	checkSum("IPs", bd.IPs)
	checkSum("prefixes", bd.Prefixes)
	checkSum("ASes", bd.ASes)
	checkSum("traffic", bd.Traffic)

	// Structural expectations from Table 3: members are a tiny share of
	// ASes but a dominant share of traffic; traffic concentrates toward
	// A(L) more than IPs do.
	if bd.ASes[routing.ClassLocal] > 0.3 {
		t.Fatalf("A(L) AS share %.3f too high", bd.ASes[routing.ClassLocal])
	}
	if bd.Traffic[routing.ClassLocal] < bd.IPs[routing.ClassLocal] {
		t.Fatalf("traffic must concentrate toward A(L): traffic %.3f < IPs %.3f",
			bd.Traffic[routing.ClassLocal], bd.IPs[routing.ClassLocal])
	}
	if bd.Traffic[routing.ClassGlobal] > bd.IPs[routing.ClassGlobal] {
		t.Fatal("A(G) must lose share when weighting by traffic")
	}

	// Server traffic concentrates even more locally (Table 3 bottom).
	srv := v.agg.LocalGlobal(classes, v.serverFilter())
	if srv.Traffic[routing.ClassLocal] < bd.Traffic[routing.ClassLocal] {
		t.Fatalf("server traffic A(L) %.3f below peering %.3f",
			srv.Traffic[routing.ClassLocal], bd.Traffic[routing.ClassLocal])
	}
}

func TestFig2RankCurve(t *testing.T) {
	v := buildView(t)
	curve := RankCurve(v.wk.Servers)
	if len(curve) != len(v.wk.Servers.Servers) {
		t.Fatal("curve length mismatch")
	}
	sum := 0.0
	for i, s := range curve {
		if s < 0 {
			t.Fatal("negative share")
		}
		if i > 0 && curve[i] > curve[i-1] {
			t.Fatal("curve not descending")
		}
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("curve sums to %v", sum)
	}
	// Fig 2: extreme concentration at the head (top 34 IPs > 6%).
	if TopShare(curve, 34) < 0.05 {
		t.Fatalf("top-34 share %.4f lacks the frontend concentration", TopShare(curve, 34))
	}
	if TopShare(curve, len(curve)+10) < 0.999 {
		t.Fatal("TopShare over everything must be ~1")
	}
}

func TestFig3CountryShares(t *testing.T) {
	v := buildView(t)
	shares := v.agg.CountryShares(nil)
	if len(shares) < 20 {
		t.Fatalf("only %d countries observed", len(shares))
	}
	total := 0
	for i, s := range shares {
		if i > 0 && s.Count > shares[i-1].Count {
			t.Fatal("country shares not sorted")
		}
		total += s.Count
	}
	if total == 0 {
		t.Fatal("no IPs geolocated")
	}
}

func TestSummarizeEmptyFilter(t *testing.T) {
	v := buildView(t)
	none := v.agg.Summarize(func(packet.IPv4Addr) bool { return false })
	if none.IPs != 0 || none.ASes != 0 || none.Bytes != 0 {
		t.Fatalf("empty filter produced %+v", none)
	}
}

func TestNumObservedIPs(t *testing.T) {
	v := buildView(t)
	if v.agg.NumObservedIPs() == 0 {
		t.Fatal("no IPs observed")
	}
	all := v.agg.Summarize(nil)
	if all.IPs != v.agg.NumObservedIPs() {
		t.Fatal("summary disagrees with observed count")
	}
}

// TestSelfAddressedRecordCreditsOnce pins the SrcIP==DstIP accounting:
// a record whose two endpoints are the same address must credit that IP
// with the record's bytes once, not twice.
func TestSelfAddressedRecordCreditsOnce(t *testing.T) {
	agg := NewAggregator(nil, nil)
	ip := packet.MakeIPv4(10, 1, 2, 3)
	agg.Observe(&dissect.Record{Class: dissect.ClassPeeringTCP, SrcIP: ip, DstIP: ip, Bytes: 1000})
	if got := agg.NumObservedIPs(); got != 1 {
		t.Fatalf("observed %d IPs, want 1", got)
	}
	s := agg.Summarize(nil)
	if s.Bytes != 1000 {
		t.Fatalf("self-addressed record credited %d bytes, want 1000", s.Bytes)
	}
	// A normal two-endpoint record still credits both sides.
	other := packet.MakeIPv4(10, 9, 9, 9)
	agg.Observe(&dissect.Record{Class: dissect.ClassPeeringTCP, SrcIP: ip, DstIP: other, Bytes: 500})
	s = agg.Summarize(nil)
	if s.Bytes != 1000+2*500 {
		t.Fatalf("mixed records credited %d bytes, want %d", s.Bytes, 1000+2*500)
	}
}

// TestGeoErrorRobustness injects geolocation-database errors (the paper
// cites geo DBs' unreliability) and checks the headline country rankings
// survive them.
func TestGeoErrorRobustness(t *testing.T) {
	cfg := netmodel.Tiny()
	cfg.GeoErrorRate = 0.08
	env, err := pipeline.NewEnv(cfg, traffic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(env.World.RIB(), env.World.GeoDB())
	observeWeek(t, env, func(_ int, rec *dissect.Record, _ uint64) {
		agg.Observe(rec)
	})
	_, byBytes := agg.TopCountries(3, nil)
	if byBytes[0].Key != "DE" {
		t.Fatalf("8%% geo errors flipped the traffic ranking: %v", byBytes)
	}
	// The erroneous entries surface as extra long-tail countries.
	clean := buildView(t)
	cleanAll := clean.agg.Summarize(nil)
	dirtyAll := agg.Summarize(nil)
	if dirtyAll.Countries <= cleanAll.Countries {
		t.Fatalf("geo errors should add spurious countries: %d vs %d",
			dirtyAll.Countries, cleanAll.Countries)
	}
}
