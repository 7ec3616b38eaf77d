package churn_test

import (
	"context"
	"testing"

	. "ixplens/internal/core/churn"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/routing"
	"ixplens/internal/traffic"
)

// trackedWeeks runs the full 17-week light pipeline once per test binary.
var cachedTracker *Tracker
var cachedEnv *pipeline.Env

func tracked(t testing.TB) (*pipeline.Env, *Tracker) {
	t.Helper()
	if cachedTracker != nil {
		return cachedEnv, cachedTracker
	}
	cfg := netmodel.Tiny()
	// Match the paper's sampling regime: enough samples per active
	// server that detection saturates for the traffic-heavy pool.
	cfg.NumServers = 2600
	opts := traffic.Options{SamplesPerWeek: 30000, SamplingRate: 16384, SnapLen: 128}
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	tracker, _, _, err := env.TrackWeeks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cachedEnv, cachedTracker = env, tracker
	return env, tracker
}

func TestComputePartitionsEachWeek(t *testing.T) {
	_, tr := tracked(t)
	weeks := tr.Compute()
	if len(weeks) != 17 {
		t.Fatalf("computed %d weeks", len(weeks))
	}
	for i, wc := range weeks {
		if wc.Total() != len(tr.Week(i).Servers) {
			t.Fatalf("week %d partitions %d != observed %d", wc.Week, wc.Total(), len(tr.Week(i).Servers))
		}
		regionTotal := 0
		for _, rc := range wc.ByRegion {
			regionTotal += rc.IPs[0] + rc.IPs[1] + rc.IPs[2]
		}
		if regionTotal != wc.Total() {
			t.Fatalf("week %d region slices %d != total %d", wc.Week, regionTotal, wc.Total())
		}
		if wc.ASes[0]+wc.ASes[1]+wc.ASes[2] != wc.TotalASes {
			t.Fatalf("week %d AS partitions broken", wc.Week)
		}
	}
	// Week 0: everything is new by construction.
	if weeks[0].IPs[PoolStable] != 0 || weeks[0].IPs[PoolRecurrent] != 0 {
		t.Fatal("first week must be all-new")
	}
}

func TestFig4aShapes(t *testing.T) {
	_, tr := tracked(t)
	weeks := tr.Compute()
	last := weeks[len(weeks)-1]
	stable := last.Share(PoolStable)
	recurrent := last.Share(PoolRecurrent)
	fresh := last.Share(PoolNew)
	// Paper: ~30% stable, ~60% recurrent, ~10% new in week 51. Bands
	// are generous because sampling noise moves tail servers around.
	if stable < 0.15 || stable > 0.55 {
		t.Fatalf("stable share %.3f out of band", stable)
	}
	if recurrent < 0.35 || recurrent > 0.75 {
		t.Fatalf("recurrent share %.3f out of band", recurrent)
	}
	if fresh > 0.25 {
		t.Fatalf("new share %.3f too high for week 51", fresh)
	}
	// The new-arrival share must trend down over the study.
	early := weeks[2].Share(PoolNew)
	if fresh >= early {
		t.Fatalf("new share did not decline: %.3f -> %.3f", early, fresh)
	}
}

func TestFig5StablePoolCarriesTraffic(t *testing.T) {
	_, tr := tracked(t)
	weeks := tr.Compute()
	// Paper: the stable pool carries >60% of server traffic each week.
	for _, wc := range weeks[4:] {
		if s := wc.ByteShare(PoolStable); s < 0.5 {
			t.Fatalf("week %d stable pool carries only %.3f of traffic", wc.Week, s)
		}
	}
	last := weeks[len(weeks)-1]
	if last.ByteShare(PoolStable) <= last.Share(PoolStable) {
		t.Fatal("stable pool must be traffic-heavier than its IP share")
	}
}

func TestFig4bRegionalChurn(t *testing.T) {
	_, tr := tracked(t)
	weeks := tr.Compute()
	last := weeks[len(weeks)-1]
	de := last.ByRegion["DE"]
	cn := last.ByRegion["CN"]
	if de == nil {
		t.Fatal("no DE region data")
	}
	// DE contributes about half the stable pool; CN nearly none.
	deStableShare := float64(de.IPs[PoolStable]) / float64(last.IPs[PoolStable])
	if deStableShare < 0.3 {
		t.Fatalf("DE stable share %.3f too low", deStableShare)
	}
	if cn != nil {
		cnStableShare := float64(cn.IPs[PoolStable]) / float64(last.IPs[PoolStable])
		if cnStableShare > 0.05 {
			t.Fatalf("CN stable share %.3f too high", cnStableShare)
		}
	}
}

func TestFig4cASChurnStabler(t *testing.T) {
	_, tr := tracked(t)
	weeks := tr.Compute()
	last := weeks[len(weeks)-1]
	asStable := float64(last.ASes[PoolStable]) / float64(last.TotalASes)
	ipStable := last.Share(PoolStable)
	// Paper: ~70% of ASes stable vs ~30% of server IPs.
	if asStable <= ipStable {
		t.Fatalf("AS stability %.3f must exceed IP stability %.3f", asStable, ipStable)
	}
	if asStable < 0.45 {
		t.Fatalf("AS stable share %.3f too low", asStable)
	}
}

func TestWeeklyTotalsStable(t *testing.T) {
	_, tr := tracked(t)
	weeks := tr.Compute()
	// §4.1: weekly AS and prefix counts are intriguingly stable. The
	// absolute level drifts slowly upward with the IXP's growth, but
	// adjacent weeks must stay close.
	for i := 1; i < len(weeks); i++ {
		ratio := float64(weeks[i].TotalASes) / float64(weeks[i-1].TotalASes)
		if ratio < 0.75 || ratio > 1.3 {
			t.Fatalf("week %d AS count jumps: %d vs %d", weeks[i].Week, weeks[i].TotalASes, weeks[i-1].TotalASes)
		}
	}
	first, last := weeks[0], weeks[len(weeks)-1]
	if float64(last.TotalASes) > 2.0*float64(first.TotalASes) {
		t.Fatalf("AS count doubled over the study: %d -> %d", first.TotalASes, last.TotalASes)
	}
}

func TestHTTPSGrowthSeries(t *testing.T) {
	_, tr := tracked(t)
	weeks := tr.Compute()
	first := weeks[0].HTTPSShareBytes()
	last := weeks[len(weeks)-1].HTTPSShareBytes()
	if last <= first {
		t.Fatalf("HTTPS byte share did not grow: %.4f -> %.4f", first, last)
	}
}

func TestHurricaneDipSeries(t *testing.T) {
	env, tr := tracked(t)
	w := env.World
	// "Published IP ranges" of the nimbus cloud's US-East region: the
	// prefixes of its home AS that geo-locate to the US (DC retagging
	// puts us-east/us-west there).
	home := w.Orgs[w.Special.NimbusCloud].HomeAS
	var ranges []routing.Prefix
	for _, pi := range w.ASes[home].Prefixes {
		if w.Prefixes[pi].Country == "US" {
			ranges = append(ranges, w.Prefixes[pi].Prefix)
		}
	}
	if len(ranges) == 0 {
		t.Skip("no US nimbus ranges in tiny world")
	}
	counts := tr.CountInRanges(ranges)
	idx44 := 44 - w.Cfg.FirstWeek
	// Week 44 must dip visibly against its neighbours.
	before, after := counts[idx44-1], counts[idx44+1]
	if counts[idx44] >= before || counts[idx44] >= after {
		t.Fatalf("no hurricane dip: weeks 43..45 = %d, %d, %d", before, counts[idx44], after)
	}
}

func TestCloudRampSeries(t *testing.T) {
	env, tr := tracked(t)
	w := env.World
	home := w.Orgs[w.Special.ElastiCloud].HomeAS
	var ieRanges []routing.Prefix
	for _, pi := range w.ASes[home].Prefixes {
		if w.Prefixes[pi].Country == "IE" {
			ieRanges = append(ieRanges, w.Prefixes[pi].Prefix)
		}
	}
	if len(ieRanges) == 0 {
		t.Skip("no IE elasticloud ranges")
	}
	counts := tr.CountInRanges(ieRanges)
	n := len(counts)
	early := avg(counts[:n-3])
	late := avg(counts[n-3:])
	if late < early*1.3 {
		t.Fatalf("no Ireland ramp: early %.1f vs late %.1f (%v)", early, late, counts)
	}
	// Traffic should ramp alongside.
	bytes := tr.BytesInRanges(ieRanges)
	if bytes[n-1] <= bytes[0] {
		t.Fatalf("IE traffic did not grow: %d -> %d", bytes[0], bytes[n-1])
	}
}

func TestResellerGrowthSeries(t *testing.T) {
	env, tr := tracked(t)
	counts := tr.CountByMember(env.World.Special.ResellerAS)
	n := len(counts)
	if counts[0] == 0 {
		t.Skip("no reseller-carried servers visible in tiny world")
	}
	if float64(counts[n-1]) < 1.25*float64(counts[0]) {
		t.Fatalf("reseller fleet did not grow: %v", counts)
	}
}

func avg(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

func TestTrackerAddOrdering(t *testing.T) {
	tr := NewTracker()
	if err := tr.Add(WeekObservation{Week: 35}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(WeekObservation{Week: 35}); err == nil {
		t.Fatal("duplicate week must fail")
	}
	if err := tr.Add(WeekObservation{Week: 34}); err == nil {
		t.Fatal("out-of-order week must fail")
	}
}

func TestPoolString(t *testing.T) {
	if PoolStable.String() != "stable" || PoolNew.String() != "new" || Pool(9).String() == "" {
		t.Fatal("pool names wrong")
	}
}

func TestSyntheticChurn(t *testing.T) {
	ip := func(n byte) packet.IPv4Addr { return packet.MakeIPv4(9, 0, 0, n) }
	tr := NewTracker()
	mk := func(week int, ips ...packet.IPv4Addr) WeekObservation {
		obs := WeekObservation{Week: week, Servers: map[packet.IPv4Addr]ServerObs{}}
		for _, i := range ips {
			obs.Servers[i] = ServerObs{Bytes: 100, ASN: 1, Region: "DE"}
		}
		return obs
	}
	// a: all weeks. b: weeks 1,3. c: week 2 on.
	check(t, tr.Add(mk(1, ip(1), ip(2))))
	check(t, tr.Add(mk(2, ip(1), ip(3))))
	check(t, tr.Add(mk(3, ip(1), ip(2), ip(3))))
	weeks := tr.Compute()
	w3 := weeks[2]
	if w3.IPs[PoolStable] != 1 { // only a
		t.Fatalf("stable = %d", w3.IPs[PoolStable])
	}
	if w3.IPs[PoolRecurrent] != 2 { // b (missed week 2), c (missed week 1)
		t.Fatalf("recurrent = %d", w3.IPs[PoolRecurrent])
	}
	if w3.IPs[PoolNew] != 0 {
		t.Fatalf("new = %d", w3.IPs[PoolNew])
	}
	w2 := weeks[1]
	if w2.IPs[PoolStable] != 1 || w2.IPs[PoolNew] != 1 {
		t.Fatalf("week2 partitions wrong: %+v", w2.IPs)
	}
}

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestGapSemantics pins the quarantined-week contract: a gap week holds
// its calendar slot as an annotated placeholder, does not advance the
// pool histories (an IP present in every *observed* week stays stable
// across the gap), and resets the consecutive-coverage streak.
func TestGapSemantics(t *testing.T) {
	ip := func(n byte) packet.IPv4Addr { return packet.MakeIPv4(9, 2, 0, n) }
	tr := NewTracker()
	mk := func(week int, ips ...packet.IPv4Addr) WeekObservation {
		obs := WeekObservation{Week: week, Servers: map[packet.IPv4Addr]ServerObs{}}
		for _, i := range ips {
			obs.Servers[i] = ServerObs{Bytes: 100, ASN: 1, Region: "DE"}
		}
		return obs
	}
	// a present every observed week; b only before the gap.
	check(t, tr.Add(mk(1, ip(1), ip(2))))
	check(t, tr.Add(mk(2, ip(1), ip(2))))
	check(t, tr.AddGap(3))
	check(t, tr.Add(mk(4, ip(1))))
	weeks := tr.Compute()
	if len(weeks) != 4 {
		t.Fatalf("computed %d weeks, want 4", len(weeks))
	}
	gap := weeks[2]
	if !gap.Gap || gap.Week != 3 {
		t.Fatalf("week 3 not marked as gap: %+v", gap)
	}
	if gap.Total() != 0 || gap.TotalBytes != 0 || gap.TotalASes != 0 {
		t.Fatalf("gap week carries data: %+v", gap)
	}
	if gap.ObservedWeeks != 2 || gap.Streak != 0 {
		t.Fatalf("gap week coverage: observed=%d streak=%d", gap.ObservedWeeks, gap.Streak)
	}
	last := weeks[3]
	if last.Gap {
		t.Fatal("week 4 wrongly marked gap")
	}
	// ip(1) was seen in all 3 observed weeks: stable despite the gap.
	if last.IPs[PoolStable] != 1 || last.IPs[PoolRecurrent] != 0 || last.IPs[PoolNew] != 0 {
		t.Fatalf("week 4 pools: %+v", last.IPs)
	}
	if last.ObservedWeeks != 3 {
		t.Fatalf("week 4 observed weeks = %d, want 3", last.ObservedWeeks)
	}
	if last.Streak != 1 {
		t.Fatalf("week 4 streak = %d, want 1 (gap resets)", last.Streak)
	}
	if weeks[1].Streak != 2 {
		t.Fatalf("week 2 streak = %d, want 2", weeks[1].Streak)
	}
	// Range/member series keep the calendar shape with zeroed gap slots.
	counts := tr.CountInRanges([]routing.Prefix{{Addr: packet.MakeIPv4(9, 2, 0, 0), Len: 24}})
	if len(counts) != 4 || counts[2] != 0 || counts[3] != 1 {
		t.Fatalf("range series across gap: %v", counts)
	}
}

// TestAllGapsCompute guards the degenerate campaign where every week
// quarantined: Compute must yield an all-gap series, not panic.
func TestAllGapsCompute(t *testing.T) {
	tr := NewTracker()
	for wk := 1; wk <= 3; wk++ {
		check(t, tr.AddGap(wk))
	}
	weeks := tr.Compute()
	if len(weeks) != 3 {
		t.Fatalf("computed %d weeks", len(weeks))
	}
	for _, wc := range weeks {
		if !wc.Gap || wc.ObservedWeeks != 0 || wc.Streak != 0 {
			t.Fatalf("all-gap week wrong: %+v", wc)
		}
	}
}

// TestUnresolvedASNsExcluded pins the ASN-0 fix: server IPs whose RIB
// lookup failed must participate in IP-level churn but stay out of the
// AS pools (where a phantom "AS 0" would otherwise appear stable every
// week) and out of the prefix count; they are reported separately.
func TestUnresolvedASNsExcluded(t *testing.T) {
	ip := func(n byte) packet.IPv4Addr { return packet.MakeIPv4(9, 1, 0, n) }
	pfx := routing.Prefix{Addr: packet.MakeIPv4(9, 1, 0, 0), Len: 24}
	tr := NewTracker()
	mk := func(week int) WeekObservation {
		obs := WeekObservation{Week: week, Servers: map[packet.IPv4Addr]ServerObs{
			ip(1): {Bytes: 100, ASN: 7, Prefix: pfx, Region: "DE"},
			ip(2): {Bytes: 100, ASN: 0, Region: "DE"}, // lookup failed
			ip(3): {Bytes: 100, ASN: 0, Region: "US"}, // lookup failed
		}}
		return obs
	}
	check(t, tr.Add(mk(1)))
	check(t, tr.Add(mk(2)))
	weeks := tr.Compute()
	for _, wc := range weeks {
		if wc.Total() != 3 {
			t.Fatalf("week %d: IP churn lost the unresolved IPs: %d", wc.Week, wc.Total())
		}
		if wc.TotalASes != 1 {
			t.Fatalf("week %d: %d ASes counted, want 1 (ASN 0 must not be an AS)", wc.Week, wc.TotalASes)
		}
		if wc.ASes[0]+wc.ASes[1]+wc.ASes[2] != wc.TotalASes {
			t.Fatalf("week %d: AS partitions do not sum to total", wc.Week)
		}
		if wc.TotalPrefixes != 1 {
			t.Fatalf("week %d: %d prefixes counted, want 1 (zero prefix excluded)", wc.Week, wc.TotalPrefixes)
		}
		if wc.UnresolvedIPs != 2 {
			t.Fatalf("week %d: %d unresolved IPs, want 2", wc.Week, wc.UnresolvedIPs)
		}
	}
	// Week 2's sole real AS was present in week 1 as well: stable.
	if weeks[1].ASes[PoolStable] != 1 {
		t.Fatalf("week 2 AS pools: %+v", weeks[1].ASes)
	}
}
