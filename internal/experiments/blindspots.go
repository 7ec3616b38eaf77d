package experiments

import (
	"ixplens/internal/core/blindspot"
	"ixplens/internal/ispview"
	"ixplens/internal/oracle"
	"ixplens/internal/packet"
	"ixplens/internal/traffic"
)

// BlindSpotAlexa reproduces the Section 3.3 Alexa recovery and
// resolver-based discovery: recovery rates over the top lists, the
// additional server IPs active measurements find, their overlap with
// the IXP view, and the classification of the invisible remainder.
func (r *Runner) BlindSpotAlexa() (Report, error) {
	rep := Report{ID: "E8", Title: "§3.3 — Alexa recovery and active discovery"}
	wk, _, err := r.Week45()
	if err != nil {
		return rep, err
	}
	list := r.Env.AlexaList(r.focusWeek())
	observed := blindspot.ObservedDomains(wk.Servers)
	n := len(list.Domains)
	top1pct := maxInt(1, n/1000) // "top-1K" analogue
	top10pct := maxInt(1, n/100) // "top-10K" analogue
	rates := blindspot.RecoveryRates(list, observed, []int{top1pct, top10pct, n})
	rep.addf("top-1K recovery (top 0.1% here)", "80%", "%s", pct(rates[top1pct]))
	rep.addf("top-10K recovery (top 1% here)", "63%", "%s", pct(rates[top10pct]))
	rep.addf("top-1M recovery (full list here)", "20%", "%s", pct(rates[n]))

	// Active queries over the uncovered portion of the list.
	ixpSet := serverSet(wk.Servers)
	var uncovered []string
	for _, d := range list.Domains {
		if !observed[d] {
			uncovered = append(uncovered, d)
		}
		if len(uncovered) >= 50_000 {
			break
		}
	}
	disc := blindspot.Discover(r.Env.DNS, uncovered, 25, ixpSet, r.Env.World.Cfg.Seed)
	rep.addf("uncovered domains queried", "~800K via 25K resolvers", "%d via %d resolvers",
		disc.QueriedDomains, len(r.Env.DNS.Resolvers()))
	rep.addf("server IPs discovered", "~600K", "%d", len(disc.Discovered))
	rep.addf("already seen at IXP", ">360K", "%d (%s)", disc.AlreadyAtIXP,
		pct(ratio(disc.AlreadyAtIXP, len(disc.Discovered))))

	cats := oracle.ClassifyUnseen(r.Env.World, disc.Discovered, ixpSet)
	unseen := len(disc.Discovered) - disc.AlreadyAtIXP
	rep.addf("unseen at IXP", "~240K", "%d", unseen)
	privFar := cats[oracle.CatPrivateCluster] + cats[oracle.CatFarRegion]
	rep.addf("private-cluster + far-region share", ">40%", "%s", pct(ratio(privFar, unseen)))
	for _, c := range []oracle.UnseenCategory{
		oracle.CatPrivateCluster, oracle.CatFarRegion,
		oracle.CatInvalidURIHandler, oracle.CatSmallRemote, oracle.CatOther,
	} {
		rep.addf("  "+c.String(), "-", "%d", cats[c])
	}
	var unseenIPs []packet.IPv4Addr
	for ip := range disc.Discovered {
		if !ixpSet[ip] {
			unseenIPs = append(unseenIPs, ip)
		}
	}
	miss := oracle.SplitMisses(r.Env.World, wk.Truth.Sampled, unseenIPs)
	rep.addf("  never sampled this week", "-", "%d", miss.NeverSampled)
	rep.addf("  sampled but not identified", "-", "%d", miss.SampledMissed)

	// The Akamai-analog case study.
	w := r.Env.World
	if c := wk.Clusters.Clusters[w.Orgs[w.Special.AcmeCDN].Domain]; c != nil {
		cs := oracle.StudyOrg(w, r.Env.DNS, c.IPs, w.Special.AcmeCDN, 60)
		rep.addf("acme visible at IXP", "28K servers in 278 ASes", "%d servers in %d ASes",
			cs.VisibleServers, cs.VisibleASes)
		rep.addf("acme via active measurement", "~100K servers in 700 ASes", "%d servers in %d ASes",
			cs.ActiveServers, cs.ActiveASes)
		rep.addf("acme ground truth", "100K+ servers in 1000+ ASes", "%d servers in %d ASes",
			cs.TruthServers, cs.TruthASes)
	}
	return rep, nil
}

// BlindSpotISP reproduces the Tier-1 ISP cross-check of Section 3.1:
// how the ISP's server view compares with the IXP's.
func (r *Runner) BlindSpotISP() (Report, error) {
	rep := Report{ID: "E9", Title: "§3.1 — Tier-1 ISP cross-validation"}
	wk, _, err := r.Week45()
	if err != nil {
		return rep, err
	}
	w := r.Env.World
	ispAS, err := ispview.PickISP(w)
	if err != nil {
		return rep, err
	}
	flows := r.Env.Opts.SamplesPerWeek
	log := ispview.Observe(w, r.Env.DNS, ispAS, r.focusWeek(), flows)
	cmp := ispview.CompareWithIXP(log, serverSet(wk.Servers))
	rep.addf("ISP vantage", "large European Tier-1, not at the IXP", "AS%d (%s)",
		w.ASes[ispAS].ASN, w.ASes[ispAS].Country)
	rep.addf("server IPs in ISP logs", "(proprietary)", "%d", cmp.ISPServers)
	rep.addf("also seen at IXP", "all but ~45K", "%d (%s)", cmp.SeenAtIXP,
		pct(ratio(cmp.SeenAtIXP, cmp.ISPServers)))
	rep.addf("ISP-only server IPs", "~45K", "%d (%s)", cmp.NotAtIXP,
		pct(ratio(cmp.NotAtIXP, cmp.ISPServers)))
	rep.addf("IXP identifications confirmed by ISP", "confirmed", "%d", cmp.ConfirmedAtIXP)
	sc := oracle.ISP(w, wk.Truth, log, serverSet(wk.Servers))
	rep.addf("ISP-only: not visible at IXP / unsampled / sampled but missed", "-", "%d / %d / %d",
		sc.NotVisible, sc.Unsampled, sc.SampledMissed[traffic.EvidenceOpaque]+sc.SampledMissed[traffic.Evidence443]+sc.SampledMissed[traffic.EvidenceHTTP])
	rep.addf("sampled but missed by evidence: opaque / 443-only / HTTP", "-", "%d / %d / %d",
		sc.SampledMissed[traffic.EvidenceOpaque], sc.SampledMissed[traffic.Evidence443], sc.SampledMissed[traffic.EvidenceHTTP])
	rep.addf("confirmed overlap precision vs ground truth", "-", "%d of %d (%s)", sc.ConfirmedTrue, sc.Confirmed, pct(sc.Precision))
	return rep, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
