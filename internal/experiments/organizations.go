package experiments

import (
	"errors"
	"fmt"

	"ixplens/internal/core/cluster"
	"ixplens/internal/core/hetero"
	"ixplens/internal/oracle"
	"ixplens/internal/packet"
)

// ClusterOrganizations reproduces Section 5.1: the three-step clustering
// shares, the organization count and size distribution, and the
// validation against ground truth.
func (r *Runner) ClusterOrganizations() (Report, error) {
	rep := Report{ID: "E16", Title: "§5.1 — clustering server IPs by organization"}
	wk, _, err := r.Week45()
	if err != nil {
		return rep, err
	}
	cl := wk.Clusters
	rep.addf("step-1 share", "78.7%", "%s", pct(cl.ClusteredShare(cluster.Step1)))
	rep.addf("step-2 share", "17.4%", "%s", pct(cl.ClusteredShare(cluster.Step2)))
	rep.addf("step-3 share", "3.9%", "%s", pct(cl.ClusteredShare(cluster.Step3)))
	rep.addf("organizations found", "~21K", "%d", len(cl.Clusters))

	// Size thresholds scale with the world (the paper's 1000-IP bar at
	// 2.4M pool servers corresponds to far fewer at reduced scale).
	scaleF := float64(r.Env.World.Cfg.NumServers) / 2_400_000.0
	big := maxInt(4, int(1000*scaleF))
	small := maxInt(2, int(10*scaleF))
	dist := cl.SizeDistribution([]int{small, big})
	rep.addf(fmt.Sprintf("orgs with >%d server IPs (scaled 1000)", big), "143", "%d", dist[big])
	rep.addf(fmt.Sprintf("orgs with >%d server IPs (scaled 10)", small), ">6K", "%d", dist[small])

	v := oracle.Organizations(r.Env.World, cl)
	rep.addf("false-positive rate", "<3%", "%s", pct(v.FalsePositiveRate))
	rep.addf("purity (IPs in their cluster's majority org)", "-", "%s", pct(v.Purity))
	rep.addf("completeness (IPs in their org's largest cluster)", "-", "%s of %d IPs; %d of %d orgs split",
		pct(v.Completeness), v.EvaluatedIPs, v.SplitOrgs, v.Orgs)
	fpLarge, ok := v.RateBySize[1000]
	fpSmall, ok2 := v.RateBySize[10]
	if ok && ok2 {
		rep.addf("FP rate small vs large clusters", "decreases with footprint",
			"%s vs %s", pct(fpSmall), pct(fpLarge))
	}
	return rep, nil
}

// Fig6bOrgSpread reproduces Figure 6(b): server IPs vs AS footprint per
// organization.
func (r *Runner) Fig6bOrgSpread() (Report, error) {
	rep := Report{ID: "E17", Title: "Fig. 6(b) — org server IPs vs AS footprint"}
	wk, _, err := r.Week45()
	if err != nil {
		return rep, err
	}
	points := hetero.OrgSpread(wk.Clusters, 10)
	w := r.Env.World
	acmeDomain := w.Orgs[w.Special.AcmeCDN].Domain
	for _, p := range points {
		if p.Authority == acmeDomain {
			rep.addf("acme-cdn (Akamai analog)", "28K server IPs in 278 ASes",
				"%d server IPs in %d ASes", p.Servers, p.ASes)
		}
	}
	multiAS := 0
	var xs, ys []float64
	for _, p := range points {
		if p.ASes > 1 {
			multiAS++
		}
		xs = append(xs, float64(p.Servers))
		ys = append(ys, float64(p.ASes))
	}
	rep.addf("orgs plotted (>10 servers)", ">6K", "%d", len(points))
	rep.addf("orgs spanning >1 AS", "commonplace", "%d (%s)", multiAS, pct(ratio(multiAS, len(points))))
	rep.series("servers", xs)
	rep.series("ases", ys)
	return rep, nil
}

// Fig6cASHosting reproduces Figure 6(c): organizations vs server IPs per
// AS.
func (r *Runner) Fig6cASHosting() (Report, error) {
	rep := Report{ID: "E18", Title: "Fig. 6(c) — orgs hosted vs server IPs per AS"}
	wk, _, err := r.Week45()
	if err != nil {
		return rep, err
	}
	points := hetero.ASHosting(wk.Clusters, 10)
	rep.addf("ASes hosting >5 orgs", ">500", "%d", hetero.CountASesHostingAtLeast(points, 6))
	rep.addf("ASes hosting >10 orgs", ">200", "%d", hetero.CountASesHostingAtLeast(points, 11))

	w := r.Env.World
	megaASN := w.ASes[w.Orgs[w.Special.MegaHost].HomeAS].ASN
	for _, p := range points {
		if p.ASN == megaASN {
			rep.addf("megahost AS (AS36351 analog)", "40K+ server IPs of 350+ orgs",
				"%d server IPs of %d orgs", p.Servers, p.Orgs)
		}
	}
	var xs, ys []float64
	for _, p := range points {
		xs = append(xs, float64(p.Servers))
		ys = append(ys, float64(p.Orgs))
	}
	rep.series("servers", xs)
	rep.series("orgs", ys)
	return rep, nil
}

// linkStudy runs the Fig. 7 attribution for one special org by
// replaying week 45's persisted flow product — no second pass over the
// capture. It also returns the org's measured server set, its cluster.
func (r *Runner) linkStudy(org int32) (*hetero.LinkStats, func(packet.IPv4Addr) bool, error) {
	wk, _, err := r.Week45()
	if err != nil {
		return nil, nil, err
	}
	if wk.Links == nil {
		return nil, nil, errors.New("experiments: links analyzer not in the registry")
	}
	w := r.Env.World
	c := wk.Clusters.Clusters[w.Orgs[org].Domain]
	if c == nil {
		return nil, nil, fmt.Errorf("no cluster for org %s", w.Orgs[org].Name)
	}
	set := make(map[packet.IPv4Addr]bool, len(c.IPs))
	for _, ip := range c.IPs {
		set[ip] = true
	}
	inCluster := func(ip packet.IPv4Addr) bool { return set[ip] }
	return wk.Links.LinkStats(w.Orgs[org].HomeAS, r.Env.EntityTable(), inCluster), inCluster, nil
}

// Fig7bAcmeLinks reproduces Figure 7(b): per-member direct-link share of
// the deploy-CDN's traffic.
func (r *Runner) Fig7bAcmeLinks() (Report, error) {
	rep := Report{ID: "E19", Title: "Fig. 7(b) — Akamai-analog traffic via direct vs other links"}
	acme := r.Env.World.Special.AcmeCDN
	ls, inCluster, err := r.linkStudy(acme)
	if err != nil {
		return rep, err
	}
	rep.addf("traffic NOT via own peering links", "11.1%", "%s", pct(ls.OffLinkShare()))
	wk, _, _ := r.Week45()
	sc := oracle.Links(r.Env.World, acme, wk.Links, inCluster)
	rep.addf("off-link share: measured vs true server IPs", "-", "%s vs %s (%+.1f pp)",
		pct(sc.MeasuredOffLink), pct(sc.TrueOffLink), sc.ErrorPP)
	rep.addf("measured org bytes from IPs the org does not own", "-", "%s", pct(sc.ForeignShare))
	only := ls.ServersOnlyOffLink()
	total := ls.NumDirectServers() + only
	rep.addf("servers seen only via non-member links", "15K of 28K", "%d of %d", only, total)
	points := ls.Points()
	x0, x100 := 0, 0
	var xs, ys []float64
	for _, p := range points {
		if p.DirectShare < 0.02 {
			x0++
		}
		if p.DirectShare > 0.98 {
			x100++
		}
		xs = append(xs, p.DirectShare)
		ys = append(ys, p.TrafficShare)
	}
	rep.addf("members with x≈0 (all traffic indirect)", "exist, some with sizable traffic", "%d of %d members", x0, len(points))
	rep.addf("members with x≈100", "many", "%d of %d", x100, len(points))
	rep.series("direct-share", xs)
	rep.series("traffic-share", ys)
	return rep, nil
}

// Fig7cCloudflareLinks reproduces Figure 7(c): the same study for the
// own-data-center CDN.
func (r *Runner) Fig7cCloudflareLinks() (Report, error) {
	rep := Report{ID: "E20", Title: "Fig. 7(c) — CloudFlare-analog traffic via direct vs other links"}
	ls, _, err := r.linkStudy(r.Env.World.Special.CloudShield)
	if err != nil {
		return rep, err
	}
	rep.addf("traffic NOT via own peering links", "similar pattern to Akamai, smaller", "%s", pct(ls.OffLinkShare()))
	points := ls.Points()
	var xs, ys []float64
	for _, p := range points {
		xs = append(xs, p.DirectShare)
		ys = append(ys, p.TrafficShare)
	}
	rep.addf("members exchanging its traffic", "hundreds", "%d", len(points))
	rep.series("direct-share", xs)
	rep.series("traffic-share", ys)
	return rep, nil
}

// MetadataCoverage reproduces the Section 2.4 coverage numbers.
func (r *Runner) MetadataCoverage() (Report, error) {
	rep := Report{ID: "E21", Title: "§2.4 — server IP meta-data coverage"}
	wk, _, err := r.Week45()
	if err != nil {
		return rep, err
	}
	cov := wk.Coverage
	rep.addf("DNS information", "71.7%", "%s", pct(ratio(cov.WithDNS, cov.Total)))
	rep.addf("at least one URI", "23.8%", "%s", pct(ratio(cov.WithURI, cov.Total)))
	rep.addf("X.509 information", "17.7%", "%s", pct(ratio(cov.WithCert, cov.Total)))
	rep.addf("at least one of the three", "81.9%", "%s", pct(ratio(cov.WithAny, cov.Total)))
	rep.addf("cleaning reduction", "<3% of pool", "%d items, %d servers emptied",
		cov.CleanedItems, cov.CleanedOut)
	return rep, nil
}
