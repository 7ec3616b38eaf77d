// Repository-level benchmarks: one per table and figure of the paper
// (the E1-E21 index in DESIGN.md), plus the ablation benches DESIGN.md
// calls out. Each benchmark re-derives its table/figure from a cached
// week-45 capture, so the timings measure the analysis stage, not world
// generation. Custom metrics (servers found, clusters formed) are
// attached via b.ReportMetric where the ablation is about coverage
// rather than speed.
package ixplens_test

import (
	"context"
	"testing"

	"ixplens/internal/analysis"
	"ixplens/internal/core/blindspot"
	"ixplens/internal/core/cluster"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/hetero"
	"ixplens/internal/core/metadata"
	"ixplens/internal/core/visibility"
	"ixplens/internal/core/webserver"
	"ixplens/internal/experiments"
	"ixplens/internal/ispview"
	"ixplens/internal/netmodel"
	"ixplens/internal/oracle"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/sflow"
	"ixplens/internal/traffic"
)

// fixture holds the shared benchmark world and week-45 artifacts.
type fixture struct {
	env    *pipeline.Env
	week   *pipeline.Week
	src    *dissect.SliceSource
	agg    *visibility.Aggregator
	runner *experiments.Runner
}

var fx *fixture

func setup(b *testing.B) *fixture {
	b.Helper()
	if fx != nil {
		fx.src.Reset()
		return fx
	}
	cfg := netmodel.Tiny()
	opts := traffic.DefaultOptions()
	runner, err := experiments.New(cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	week, agg, err := runner.Week45()
	if err != nil {
		b.Fatal(err)
	}
	// The dissection benchmarks replay one buffered copy of the week,
	// cloned out of the collector's recycled buffers.
	src := &dissect.SliceSource{}
	if _, err := runner.Env.EachDatagram(context.Background(), 45, func(d *sflow.Datagram) error {
		src.Datagrams = append(src.Datagrams, *d.Clone())
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	fx = &fixture{env: runner.Env, week: week, src: src, agg: agg, runner: runner}
	return fx
}

// dissectPass runs the cascade over the cached capture through the
// driver's serial reference.
func (f *fixture) dissectPass(b *testing.B, obs dissect.ShardObserver) dissect.Counts {
	b.Helper()
	f.src.Reset()
	counts, err := dissect.ProcessSharded(context.Background(), f.src, f.env.Fabric, 1, obs, nil)
	if err != nil {
		b.Fatal(err)
	}
	return counts
}

// identify runs server identification over the cached capture: a
// webserver-only analysis run fed by the driver's serial reference.
func (f *fixture) identify(b *testing.B) *webserver.Result {
	b.Helper()
	reg, err := analysis.Select(analysis.NameWebserver)
	if err != nil {
		b.Fatal(err)
	}
	run := reg.NewRun(f.env.AnalysisContext(), 1)
	f.dissectPass(b, run.Observe)
	prods, err := run.Finish(45)
	if err != nil {
		b.Fatal(err)
	}
	return prods.Webserver()
}

// --- E1: Fig. 1 ---

func BenchmarkFig1FilterCascade(b *testing.B) {
	f := setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		counts := f.dissectPass(b, nil)
		if counts.PeeringShare() < 0.9 {
			b.Fatal("cascade broken")
		}
	}
}

// --- E2: §2.2.2 server identification ---

func BenchmarkServerIdentification(b *testing.B) {
	f := setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := f.identify(b)
		if len(res.Servers) == 0 {
			b.Fatal("no servers identified")
		}
	}
	b.ReportMetric(float64(len(f.week.Servers.Servers)), "servers")
}

// --- E3: Fig. 2 ---

func BenchmarkFig2RankCurve(b *testing.B) {
	f := setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		curve := visibility.RankCurve(f.week.Servers)
		if visibility.TopShare(curve, 34) <= 0 {
			b.Fatal("empty curve")
		}
	}
}

// --- E4: Table 1 ---

func BenchmarkTable1Summary(b *testing.B) {
	f := setup(b)
	filter := func(ip packet.IPv4Addr) bool {
		_, ok := f.week.Servers.Servers[ip]
		return ok
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		all := f.agg.Summarize(nil)
		srv := f.agg.Summarize(filter)
		if all.IPs == 0 || srv.IPs == 0 {
			b.Fatal("empty summary")
		}
	}
}

// --- E5: Fig. 3 ---

func BenchmarkFig3CountryShares(b *testing.B) {
	f := setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(f.agg.CountryShares(nil)) == 0 {
			b.Fatal("no countries")
		}
	}
}

// --- E6: Table 2 ---

func BenchmarkTable2Top10(b *testing.B) {
	f := setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		byIPs, byBytes := f.agg.TopCountries(10, nil)
		if len(byIPs) == 0 || len(byBytes) == 0 {
			b.Fatal("no rankings")
		}
		f.agg.TopASNs(10, nil)
	}
}

// --- E7: Table 3 ---

func BenchmarkTable3LocalGlobal(b *testing.B) {
	f := setup(b)
	w := f.env.World
	var members []uint32
	for i := range w.ASes {
		if w.ASes[i].IsMemberInWeek(45) {
			members = append(members, w.ASes[i].ASN)
		}
	}
	classes := w.ASGraph().Classify(members)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := f.agg.LocalGlobal(classes, nil)
		if bd.IPs[0]+bd.IPs[1]+bd.IPs[2] == 0 {
			b.Fatal("empty breakdown")
		}
	}
}

// --- E8: §3.3 Alexa recovery + discovery ---

func BenchmarkBlindSpotAlexa(b *testing.B) {
	f := setup(b)
	list := f.env.AlexaList(45)
	observed := blindspot.ObservedDomains(f.week.Servers)
	ixpSet := make(map[packet.IPv4Addr]bool, len(f.week.Servers.Servers))
	for ip := range f.week.Servers.Servers {
		ixpSet[ip] = true
	}
	var uncovered []string
	for _, d := range list.Domains {
		if !observed[d] {
			uncovered = append(uncovered, d)
		}
		if len(uncovered) >= 500 {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		list.Recovery(observed, len(list.Domains))
		disc := blindspot.Discover(f.env.DNS, uncovered, 10, ixpSet, 1)
		if disc.QueriedDomains == 0 {
			b.Fatal("nothing queried")
		}
	}
}

// --- E9: §3.1 ISP cross-validation ---

func BenchmarkBlindSpotISP(b *testing.B) {
	f := setup(b)
	ispAS, err := ispview.PickISP(f.env.World)
	if err != nil {
		b.Fatal(err)
	}
	ixpSet := make(map[packet.IPv4Addr]bool, len(f.week.Servers.Servers))
	for ip := range f.week.Servers.Servers {
		ixpSet[ip] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log := ispview.Observe(f.env.World, f.env.DNS, ispAS, 45, 10_000)
		cmp := ispview.CompareWithIXP(log, ixpSet)
		if cmp.ISPServers == 0 {
			b.Fatal("ISP saw nothing")
		}
	}
}

// --- E10-E15: the longitudinal analyses (17-week tracking) ---

// benchTracker caches the 17-week tracking for the churn benches.
var benchTrackerWeeks []int

func trackedWeeks(b *testing.B) *fixture {
	f := setup(b)
	if _, _, err := f.runner.Tracked(); err != nil {
		b.Fatal(err)
	}
	return f
}

func BenchmarkFig4aServerChurn(b *testing.B) {
	f := trackedWeeks(b)
	tracker, _, _ := f.runner.Tracked()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weeks := tracker.Compute()
		if len(weeks) == 0 {
			b.Fatal("no weeks")
		}
	}
}

func BenchmarkFig4bRegionChurn(b *testing.B) {
	f := trackedWeeks(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.runner.Fig4bRegionChurn(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4cASChurn(b *testing.B) {
	f := trackedWeeks(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.runner.Fig4cASChurn(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5TrafficChurn(b *testing.B) {
	f := trackedWeeks(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.runner.Fig5TrafficChurn(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeeklyStability(b *testing.B) {
	f := trackedWeeks(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.runner.WeeklyStability(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventDetection(b *testing.B) {
	f := trackedWeeks(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.runner.EventDetection(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E16: §5.1 clustering ---

func BenchmarkClusterOrganizations(b *testing.B) {
	f := setup(b)
	opts := cluster.DefaultOptions()
	opts.KnownShared = f.env.DNS.PublicDNSProviders()
	opts.ASNOf = f.env.World.RIB().LookupASN
	b.ReportAllocs()
	b.ResetTimer()
	var res *cluster.Result
	for i := 0; i < b.N; i++ {
		res = cluster.Run(f.week.Metas, opts)
	}
	b.ReportMetric(float64(len(res.Clusters)), "clusters")
}

// --- E17/E18: Fig. 6 ---

func BenchmarkFig6bOrgSpread(b *testing.B) {
	f := setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(hetero.OrgSpread(f.week.Clusters, 10)) == 0 {
			b.Fatal("no org points")
		}
	}
}

func BenchmarkFig6cASHosting(b *testing.B) {
	f := setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(hetero.ASHosting(f.week.Clusters, 10)) == 0 {
			b.Fatal("no AS points")
		}
	}
}

// --- E19/E20: Fig. 7 link attribution (second pass over the capture) ---

func benchLinkStudy(b *testing.B, org int32) {
	f := setup(b)
	w := f.env.World
	c := f.week.Clusters.Clusters[w.Orgs[org].Domain]
	if c == nil {
		b.Fatal("org cluster missing")
	}
	set := make(map[packet.IPv4Addr]bool, len(c.IPs))
	for _, ip := range c.IPs {
		set[ip] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls := hetero.NewLinkStats(w.Orgs[org].HomeAS)
		f.dissectPass(b, func(_ int, rec *dissect.Record, _ uint64) {
			ls.Observe(rec, func(ip packet.IPv4Addr) bool { return set[ip] })
		})
		if ls.TotalBytes == 0 {
			b.Fatal("no traffic attributed")
		}
	}
}

func BenchmarkFig7bAkamaiLinks(b *testing.B) {
	f := setup(b)
	benchLinkStudy(b, f.env.World.Special.AcmeCDN)
}

func BenchmarkFig7cCloudflareLinks(b *testing.B) {
	f := setup(b)
	benchLinkStudy(b, f.env.World.Special.CloudShield)
}

// --- E21: §2.4 meta-data ---

func BenchmarkMetadataCoverage(b *testing.B) {
	f := setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		metas, cov := metadata.Collect(f.week.Servers, f.env.DNS)
		if len(metas) == 0 || cov.Total == 0 {
			b.Fatal("no metadata")
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkHTTPDetectionMethods compares the paper's string-matching
// server identification against a naive port-based classification: the
// ports method is faster but, as the paper argues, undercounts the
// server-related traffic share. The servers metric captures coverage.
func BenchmarkHTTPDetectionMethods(b *testing.B) {
	f := setup(b)
	b.Run("string-matching", func(b *testing.B) {
		b.ReportAllocs()
		var res *webserver.Result
		for i := 0; i < b.N; i++ {
			res = f.identify(b)
		}
		b.ReportMetric(float64(len(res.Servers)), "servers")
	})
	b.Run("port-based", func(b *testing.B) {
		b.ReportAllocs()
		var count int
		for i := 0; i < b.N; i++ {
			servers := make(map[packet.IPv4Addr]bool)
			f.dissectPass(b, func(_ int, rec *dissect.Record, _ uint64) {
				if rec.Class != dissect.ClassPeeringTCP {
					return
				}
				// Naive: the side on 80/8080/443 is "a server".
				switch {
				case rec.SrcPort == 80 || rec.SrcPort == 8080 || rec.SrcPort == 443:
					servers[rec.SrcIP] = true
				case rec.DstPort == 80 || rec.DstPort == 8080 || rec.DstPort == 443:
					servers[rec.DstIP] = true
				}
			})
			count = len(servers)
		}
		b.ReportMetric(float64(count), "servers")
	})
}

// BenchmarkClusterStepAblation compares the full three-step clustering
// against crippled variants: without shared-authority handling (DNS
// provider customers collapse) and without the footprint tie-breaker.
func BenchmarkClusterStepAblation(b *testing.B) {
	f := setup(b)
	base := cluster.DefaultOptions()
	base.KnownShared = f.env.DNS.PublicDNSProviders()
	base.ASNOf = f.env.World.RIB().LookupASN

	variants := []struct {
		name string
		opts cluster.Options
	}{
		{"full", base},
		{"no-shared-handling", cluster.Options{
			SharedDomainSpread: 1 << 30, SharedSpreadRatio: 1e18, ASNOf: base.ASNOf,
		}},
		{"no-footprint", cluster.Options{
			SharedDomainSpread: base.SharedDomainSpread,
			SharedSpreadRatio:  base.SharedSpreadRatio,
			KnownShared:        base.KnownShared,
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *cluster.Result
			for i := 0; i < b.N; i++ {
				res = cluster.Run(f.week.Metas, v.opts)
			}
			val := oracle.Organizations(f.env.World, res)
			b.ReportMetric(float64(len(res.Clusters)), "clusters")
			b.ReportMetric(100*val.FalsePositiveRate, "fp%")
		})
	}
}

// BenchmarkSamplingRateSweep regenerates a week at different sFlow
// sampling rates and reports how many servers the identification
// recovers: visibility versus record volume.
func BenchmarkSamplingRateSweep(b *testing.B) {
	cfg := netmodel.Tiny()
	for _, rate := range []uint32{1024, 4096, 16384, 65536} {
		b.Run(rateName(rate), func(b *testing.B) {
			// Samples scale inversely with rate at constant traffic.
			samples := int(30_000 * 16384 / rate)
			opts := traffic.Options{SamplesPerWeek: samples, SamplingRate: rate, SnapLen: 128}
			env, err := pipeline.NewEnv(cfg, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var found int
			for i := 0; i < b.N; i++ {
				wk, err := env.AnalyzeWeek(context.Background(), 45)
				if err != nil {
					b.Fatal(err)
				}
				found = len(wk.Servers.Servers)
			}
			b.ReportMetric(float64(found), "servers")
		})
	}
}

func rateName(rate uint32) string {
	switch rate {
	case 1024:
		return "1-in-1K"
	case 4096:
		return "1-in-4K"
	case 16384:
		return "1-in-16K"
	default:
		return "1-in-64K"
	}
}
