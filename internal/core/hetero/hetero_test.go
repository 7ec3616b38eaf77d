package hetero_test

import (
	"context"
	"testing"

	"ixplens/internal/core/dissect"
	. "ixplens/internal/core/hetero"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/traffic"
)

var (
	cachedEnv *pipeline.Env
	cachedWk  *pipeline.Week
)

func analyzed(t testing.TB) (*pipeline.Env, *pipeline.Week) {
	t.Helper()
	if cachedEnv != nil {
		return cachedEnv, cachedWk
	}
	env, err := pipeline.NewEnv(netmodel.Tiny(), traffic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wk, err := env.AnalyzeWeek(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	cachedEnv, cachedWk = env, wk
	return env, wk
}

func TestOrgSpreadShapes(t *testing.T) {
	env, wk := analyzed(t)
	points := OrgSpread(wk.Clusters, 10)
	if len(points) < 10 {
		t.Fatalf("only %d org points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Servers > points[i-1].Servers {
			t.Fatal("points not sorted by server count")
		}
	}
	// The deploy-CDN must be the widest-spread org among the points.
	acmeDomain := env.World.Orgs[env.World.Special.AcmeCDN].Domain
	var acme *OrgPoint
	maxASes := 0
	for i := range points {
		if points[i].Authority == acmeDomain {
			acme = &points[i]
		}
		if points[i].ASes > maxASes {
			maxASes = points[i].ASes
		}
	}
	if acme == nil {
		t.Fatal("acme missing from org spread")
	}
	if acme.ASes < maxASes/2 || acme.ASes < 5 {
		t.Fatalf("acme AS footprint %d not among the widest (max %d)", acme.ASes, maxASes)
	}
	// Many orgs must be single-AS (the bulk of Fig. 6b sits at y=1).
	singles := 0
	for _, p := range points {
		if p.ASes == 1 {
			singles++
		}
	}
	if singles == 0 {
		t.Fatal("no single-AS orgs")
	}
}

func TestASHostingShapes(t *testing.T) {
	env, wk := analyzed(t)
	points := ASHosting(wk.Clusters, 10)
	if len(points) == 0 {
		t.Fatal("no AS points")
	}
	multi5 := CountASesHostingAtLeast(points, 5)
	multi2 := CountASesHostingAtLeast(points, 2)
	if multi2 == 0 || multi5 > multi2 {
		t.Fatalf("hosting marginals broken: >=2 orgs %d, >=5 orgs %d", multi2, multi5)
	}
	// The megahost AS must host many organizations (AS36351 analog).
	w := env.World
	megaASN := w.ASes[w.Orgs[w.Special.MegaHost].HomeAS].ASN
	var mega *ASPoint
	for i := range points {
		if points[i].ASN == megaASN {
			mega = &points[i]
		}
	}
	if mega == nil {
		t.Fatal("megahost AS missing")
	}
	if mega.Orgs < 5 {
		t.Fatalf("megahost hosts only %d orgs", mega.Orgs)
	}
	// It should be at or near the top of the org-count ranking.
	if points[0].Orgs > mega.Orgs*3 {
		t.Fatalf("megahost (%d orgs) far from top (%d)", mega.Orgs, points[0].Orgs)
	}
}

// linkStatsFor attributes one special org's traffic the way ixpmine,
// the experiments and the heterogenization example do: by replaying the
// week's persisted link-flow product.
func linkStatsFor(t testing.TB, org int32) (*pipeline.Env, *LinkStats) {
	t.Helper()
	env, wk := analyzed(t)
	w := env.World
	domain := w.Orgs[org].Domain
	c := wk.Clusters.Clusters[domain]
	if c == nil {
		t.Fatalf("no cluster for %s", domain)
	}
	serverSet := make(map[packet.IPv4Addr]bool, len(c.IPs))
	for _, ip := range c.IPs {
		serverSet[ip] = true
	}
	ls := wk.Links.LinkStats(w.Orgs[org].HomeAS, env.EntityTable(),
		func(ip packet.IPv4Addr) bool { return serverSet[ip] })
	return env, ls
}

func TestFig7bAcmeLinks(t *testing.T) {
	env, ls := linkStatsFor(t, cachedOrDefaultAcme(t))
	if ls.TotalBytes == 0 {
		t.Fatal("no acme traffic attributed")
	}
	off := ls.OffLinkShare()
	// Paper: 11.1% of Akamai traffic bypasses the direct links.
	if off < 0.02 || off > 0.40 {
		t.Fatalf("acme off-link share %.3f out of band", off)
	}
	// A majority of acme's observed servers never use the direct link
	// (15K of 28K in the paper) while carrying a minority of traffic.
	only := ls.ServersOnlyOffLink()
	totalServers := ls.NumDirectServers() + only
	if only*3 < totalServers {
		t.Fatalf("only %d of %d acme servers exclusively off-link", only, totalServers)
	}
	points := ls.Points()
	if len(points) < 10 {
		t.Fatalf("only %d members exchange acme traffic", len(points))
	}
	// The scatter must include members at x=0 (all acme traffic via
	// third parties) and members near x=1.
	var low, high int
	for _, p := range points {
		if p.DirectShare < 0.05 {
			low++
		}
		if p.DirectShare > 0.8 {
			high++
		}
	}
	if low == 0 || high == 0 {
		t.Fatalf("scatter not spread: %d low, %d high of %d", low, high, len(points))
	}
	_ = env
}

func cachedOrDefaultAcme(t testing.TB) int32 {
	env, _ := analyzed(t)
	return env.World.Special.AcmeCDN
}

func TestFig7cCloudShieldLinks(t *testing.T) {
	env, _ := analyzed(t)
	_, ls := linkStatsFor(t, env.World.Special.CloudShield)
	if ls.TotalBytes == 0 {
		t.Fatal("no cloudshield traffic")
	}
	// CloudShield hosts only in its own AS, yet some traffic still
	// reaches members via transit relays (non-peering member pairs).
	off := ls.OffLinkShare()
	if off <= 0 || off > 0.5 {
		t.Fatalf("cloudshield off-link share %.3f out of band", off)
	}
	// Its off-link share must be smaller than acme's: no third-party
	// server deployments, only relay effects.
	_, acme := linkStatsFor(t, env.World.Special.AcmeCDN)
	if off >= acme.OffLinkShare() {
		t.Fatalf("cloudshield off-link %.3f >= acme %.3f", off, acme.OffLinkShare())
	}
}

func TestLinkPointsConsistency(t *testing.T) {
	env, _ := analyzed(t)
	_, ls := linkStatsFor(t, env.World.Special.AcmeCDN)
	var sum float64
	for _, p := range ls.Points() {
		if p.DirectShare < 0 || p.DirectShare > 1 {
			t.Fatalf("direct share %v out of range", p.DirectShare)
		}
		sum += p.TrafficShare
	}
	if sum > 1.0001 {
		t.Fatalf("traffic shares sum to %v", sum)
	}
}

func TestObserveIgnoresIrrelevant(t *testing.T) {
	ls := NewLinkStats(1)
	rec := &dissect.Record{
		Class: dissect.ClassPeeringTCP,
		SrcIP: packet.MakeIPv4(1, 1, 1, 1), DstIP: packet.MakeIPv4(2, 2, 2, 2),
		InMember: 3, OutMember: 4, Bytes: 100,
	}
	ls.Observe(rec, func(packet.IPv4Addr) bool { return false })
	if ls.TotalBytes != 0 {
		t.Fatal("non-server record counted")
	}
	rec.Class = dissect.ClassLocal
	ls.Observe(rec, func(packet.IPv4Addr) bool { return true })
	if ls.TotalBytes != 0 {
		t.Fatal("non-peering record counted")
	}
}

func TestObserveDirections(t *testing.T) {
	ls := NewLinkStats(7)
	server := packet.MakeIPv4(9, 9, 9, 9)
	isServer := func(ip packet.IPv4Addr) bool { return ip == server }
	// Response: server at src, entering via home member 7.
	ls.Observe(&dissect.Record{
		Class: dissect.ClassPeeringTCP, SrcIP: server, DstIP: packet.MakeIPv4(1, 1, 1, 1),
		InMember: 7, OutMember: 3, Bytes: 100,
	}, isServer)
	// Request: server at dst, leaving via member 5 (off-link hosting).
	ls.Observe(&dissect.Record{
		Class: dissect.ClassPeeringTCP, SrcIP: packet.MakeIPv4(1, 1, 1, 1), DstIP: server,
		InMember: 3, OutMember: 5, Bytes: 50,
	}, isServer)
	if ls.TotalBytes != 150 || ls.DirectBytes != 100 {
		t.Fatalf("bytes wrong: %d total %d direct", ls.TotalBytes, ls.DirectBytes)
	}
	if got := ls.PerMember[3]; got == nil || got.Direct != 100 || got.Total != 150 {
		t.Fatalf("member 3 stats wrong: %+v", got)
	}
	if ls.OffLinkShare() < 0.33 || ls.OffLinkShare() > 0.34 {
		t.Fatalf("off-link share %v", ls.OffLinkShare())
	}
	if ls.ServersOnlyOffLink() != 0 {
		t.Fatal("server used the direct link at least once")
	}
}
