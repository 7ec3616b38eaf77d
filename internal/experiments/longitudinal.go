package experiments

import (
	"fmt"

	"ixplens/internal/core/churn"
	"ixplens/internal/oracle"
	"ixplens/internal/routing"
	"ixplens/internal/traffic"
)

// Fig4aServerChurn reproduces Figure 4(a): the weekly stable/recurrent/
// new partitions of the server IPs.
func (r *Runner) Fig4aServerChurn() (Report, error) {
	rep := Report{ID: "E10", Title: "Fig. 4(a) — churn of server IPs, weeks 35-51"}
	tracker, _, err := r.Tracked()
	if err != nil {
		return rep, err
	}
	weeks := tracker.Compute()
	last := weeks[len(weeks)-1]
	rep.addf("stable pool share (week 51)", "~30%", "%s", pct(last.Share(churn.PoolStable)))
	rep.addf("recurrent pool share", "~60%", "%s", pct(last.Share(churn.PoolRecurrent)))
	rep.addf("first-seen share", "~10%", "%s", pct(last.Share(churn.PoolNew)))
	sc := oracle.Stable(r.Env.World, tracker, r.truths)
	rep.addf("stable share: measured vs true (sampled stable servers)", "-", "%s vs %s",
		pct(sc.MeasuredShare), pct(sc.TrueShare))
	rep.addf("stable pool precision vs ground truth", "-", "%d of %d (%s)", sc.TruePositives, sc.Labelled, pct(sc.Precision))
	rep.addf("recall of sampled stable servers", "-", "%d of %d (%s)", sc.Found, sc.StableSampled, pct(sc.Recall))
	rep.addf("stable servers missed: unsampled in a week / mislabelled", "-", "%d / %d", sc.MissedUnsampled, sc.Mislabelled)
	mm := sc.MislabelledMisses
	rep.addf("mislabelled: missed server-weeks by evidence (opaque / 443-only / HTTP)", "-", "%d / %d / %d",
		mm[traffic.EvidenceOpaque], mm[traffic.Evidence443], mm[traffic.EvidenceHTTP])

	var stable, recurrent, fresh, totals []float64
	for _, wc := range weeks {
		stable = append(stable, float64(wc.IPs[churn.PoolStable]))
		recurrent = append(recurrent, float64(wc.IPs[churn.PoolRecurrent]))
		fresh = append(fresh, float64(wc.IPs[churn.PoolNew]))
		totals = append(totals, float64(wc.Total()))
	}
	rep.series("stable", stable)
	rep.series("recurrent", recurrent)
	rep.series("new", fresh)
	rep.series("total", totals)
	return rep, nil
}

// Fig4bRegionChurn reproduces Figure 4(b): the same partitions per
// region (DE, US, RU, CN, RoW).
func (r *Runner) Fig4bRegionChurn() (Report, error) {
	rep := Report{ID: "E11", Title: "Fig. 4(b) — churn of server IPs per region"}
	tracker, _, err := r.Tracked()
	if err != nil {
		return rep, err
	}
	weeks := tracker.Compute()
	last := weeks[len(weeks)-1]
	stableTotal := last.IPs[churn.PoolStable]
	for _, region := range []string{"DE", "US", "RU", "CN", "RoW"} {
		rc := last.ByRegion[region]
		if rc == nil {
			rc = &churn.RegionChurn{}
		}
		paper := map[string]string{
			"DE": "~half the stable pool", "US": "sizable", "RU": "sizable",
			"CN": "vanishingly small", "RoW": "remainder",
		}[region]
		rep.addf(fmt.Sprintf("%s share of stable pool", region), paper, "%s",
			pct(ratio(rc.IPs[churn.PoolStable], stableTotal)))
	}
	var perRegion []float64
	for _, region := range []string{"DE", "US", "RU", "CN", "RoW"} {
		if rc := last.ByRegion[region]; rc != nil {
			perRegion = append(perRegion, float64(rc.IPs[churn.PoolStable]))
		} else {
			perRegion = append(perRegion, 0)
		}
	}
	rep.series("stable-by-region", perRegion)
	return rep, nil
}

// Fig4cASChurn reproduces Figure 4(c): AS-level churn.
func (r *Runner) Fig4cASChurn() (Report, error) {
	rep := Report{ID: "E12", Title: "Fig. 4(c) — churn of ASes with servers"}
	tracker, _, err := r.Tracked()
	if err != nil {
		return rep, err
	}
	weeks := tracker.Compute()
	last := weeks[len(weeks)-1]
	rep.addf("stable AS share (week 51)", "~70%", "%s",
		pct(ratio(last.ASes[churn.PoolStable], last.TotalASes)))
	rep.addf("first-seen AS share", "miniscule", "%s",
		pct(ratio(last.ASes[churn.PoolNew], last.TotalASes)))
	var series []float64
	for _, wc := range weeks {
		series = append(series, ratio(wc.ASes[churn.PoolStable], wc.TotalASes))
	}
	rep.series("as-stable-share", series)
	return rep, nil
}

// Fig5TrafficChurn reproduces Figure 5: server traffic per pool and
// region.
func (r *Runner) Fig5TrafficChurn() (Report, error) {
	rep := Report{ID: "E13", Title: "Fig. 5 — churn of server traffic by region"}
	tracker, _, err := r.Tracked()
	if err != nil {
		return rep, err
	}
	weeks := tracker.Compute()
	last := weeks[len(weeks)-1]
	rep.addf("stable pool traffic share", ">60% every week", "%s (week 51)",
		pct(last.ByteShare(churn.PoolStable)))
	rep.addf("recurrent pool traffic share", "<30%", "%s",
		pct(last.ByteShare(churn.PoolRecurrent)))
	minStable := 1.0
	for _, wc := range weeks[2:] {
		if s := wc.ByteShare(churn.PoolStable); s < minStable {
			minStable = s
		}
	}
	rep.addf("minimum weekly stable traffic share", ">60%", "%s", pct(minStable))
	// US/RU: the stable pool carries nearly all the region's traffic.
	for _, region := range []string{"US", "RU", "CN"} {
		rc := last.ByRegion[region]
		if rc == nil {
			continue
		}
		tot := rc.Bytes[0] + rc.Bytes[1] + rc.Bytes[2]
		if tot == 0 {
			continue
		}
		paper := "stable pool carries almost all"
		if region == "CN" {
			paper = "basically invisible in traffic"
		}
		rep.addf(fmt.Sprintf("%s stable share of region traffic", region), paper, "%s",
			pct(float64(rc.Bytes[churn.PoolStable])/float64(tot)))
	}
	var series []float64
	for _, wc := range weeks {
		series = append(series, wc.ByteShare(churn.PoolStable))
	}
	rep.series("stable-traffic-share", series)
	return rep, nil
}

// WeeklyStability reproduces the Section 4.1 text numbers: weekly AS and
// prefix counts, membership growth, traffic volume growth.
func (r *Runner) WeeklyStability() (Report, error) {
	rep := Report{ID: "E14", Title: "§4.1 — stability in the face of growth"}
	tracker, weekly, err := r.Tracked()
	if err != nil {
		return rep, err
	}
	weeks := tracker.Compute()
	w := r.Env.World
	cfg := &w.Cfg

	first, last := weeks[0], weeks[len(weeks)-1]
	truthASes := len(w.ASes)
	truthPrefixes := len(w.Prefixes)
	rep.addf("weekly ASes with server traffic", "~20K (≈50% of routed)", "%d..%d (%s..%s of routed)",
		first.TotalASes, last.TotalASes,
		pct(ratio(first.TotalASes, truthASes)), pct(ratio(last.TotalASes, truthASes)))
	rep.addf("weekly prefixes with server traffic", "~75K (≈15%)", "%d..%d (%s..%s)",
		first.TotalPrefixes, last.TotalPrefixes,
		pct(ratio(first.TotalPrefixes, truthPrefixes)), pct(ratio(last.TotalPrefixes, truthPrefixes)))
	rep.addf("members week 35 → 51", "443 → 457", "%d → %d",
		w.NumMembersInWeek(cfg.FirstWeek), w.NumMembersInWeek(cfg.LastWeek()))
	// A degraded run leaves failed weeks nil in the per-week results;
	// report the last week that actually completed.
	for i := len(weekly) - 1; i >= 0; i-- {
		if weekly[i] != nil {
			rep.addf("servers identified (last observed week)", "—", "%d", len(weekly[i].Servers))
			break
		}
	}
	if first.TotalBytes > 0 {
		rep.addf("traffic volume growth", "11.9 → 14.5 PB/day", "%.2fx over the window",
			float64(last.TotalBytes)/float64(first.TotalBytes))
	}
	if n := len(r.WeekErrors()); n > 0 {
		rep.addf("weeks missing (degraded run)", "0", "%d %v", n, r.WeekErrors().Weeks())
	}
	return rep, nil
}

// EventDetection reproduces the Section 4.2 event studies.
func (r *Runner) EventDetection() (Report, error) {
	rep := Report{ID: "E15", Title: "§4.2 — changes in the face of stability"}
	tracker, _, err := r.Tracked()
	if err != nil {
		return rep, err
	}
	weeks := tracker.Compute()
	w := r.Env.World
	cfg := &w.Cfg

	// HTTPS adoption trend.
	httpsFirst := weeks[0].HTTPSShareIPs()
	httpsLast := weeks[len(weeks)-1].HTTPSShareIPs()
	rep.addf("HTTPS server-IP share trend", "small, steady increase", "%s → %s",
		pct(httpsFirst), pct(httpsLast))
	var httpsSeries []float64
	for _, wc := range weeks {
		httpsSeries = append(httpsSeries, wc.HTTPSShareBytes())
	}
	rep.series("https-share", httpsSeries)

	// Cloud region ramp (EC2 Ireland analog), via published IP ranges.
	ieCounts := tracker.CountInRanges(r.cloudRanges(w.Special.ElastiCloud, "IE"))
	n := len(ieCounts)
	if n >= 4 {
		rep.addf("EC2-Ireland server IPs (weeks 48..51)", "pronounced increase in 49-51",
			"%v", ieCounts[n-4:])
	}
	rep.series("ec2-ireland", toFloats(ieCounts))

	// Hurricane dip (week 44) for the nimbus cloud's US ranges.
	usCounts := tracker.CountInRanges(r.cloudRanges(w.Special.NimbusCloud, "US"))
	idx := 44 - cfg.FirstWeek
	if idx >= 1 && idx+1 < len(usCounts) {
		rep.addf("cloud US-East servers weeks 43/44/45", "drastic week-44 reduction",
			"%d / %d / %d", usCounts[idx-1], usCounts[idx], usCounts[idx+1])
	}
	rep.series("nimbus-us", toFloats(usCounts))

	// Reseller growth.
	resCounts := tracker.CountByMember(w.Special.ResellerAS)
	rep.addf("reseller-carried server IPs", "50K → 100K over four months", "%d → %d",
		resCounts[0], resCounts[len(resCounts)-1])
	rep.series("reseller", toFloats(resCounts))
	return rep, nil
}

// cloudRanges returns the published address ranges of a cloud org in a
// country (the Section 4.2 technique).
func (r *Runner) cloudRanges(org int32, country string) []routing.Prefix {
	w := r.Env.World
	home := w.Orgs[org].HomeAS
	var out []routing.Prefix
	if home < 0 {
		return out
	}
	for _, pi := range w.ASes[home].Prefixes {
		if w.Prefixes[pi].Country == country {
			out = append(out, w.Prefixes[pi].Prefix)
		}
	}
	return out
}

func toFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
