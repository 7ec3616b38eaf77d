package experiments

import (
	"fmt"
	"strings"

	"ixplens/internal/certsim"
	"ixplens/internal/core/visibility"
	"ixplens/internal/oracle"
	"ixplens/internal/routing"
)

// Fig1Filtering reproduces Figure 1 and the Section 2.2.1 text: the
// filtering cascade from all traffic down to peering traffic, plus the
// TCP/UDP split.
func (r *Runner) Fig1Filtering() (Report, error) {
	rep := Report{ID: "E1", Title: "Fig. 1 — traffic filtering cascade"}
	wk, _, err := r.Week45()
	if err != nil {
		return rep, err
	}
	c := wk.Counts
	rep.addf("non-IPv4 share", "~0.4%", "%s", pct(ratio(c.NonIPv4, c.Total)))
	rep.addf("local/non-member share", "~0.6%", "%s", pct(ratio(c.Local, c.Total)))
	rep.addf("non-TCP/UDP share", "<0.5%", "%s", pct(ratio(c.NonTCPUDP, c.Total)))
	rep.addf("peering traffic share", ">98.5%", "%s", pct(c.PeeringShare()))
	rep.addf("TCP share of peering bytes", "82%", "%s", pct(c.TCPShare()))
	rep.addf("UDP share of peering bytes", "18%", "%s", pct(1-c.TCPShare()))
	rep.series("cascade", []float64{
		ratio(c.NonIPv4, c.Total), ratio(c.Local, c.Total),
		ratio(c.NonTCPUDP, c.Total), c.PeeringShare(),
	})
	return rep, nil
}

// ServerIdentification reproduces the Section 2.2.2 numbers: the size
// of the identified Web server set, the crawl funnel, the server-traffic
// share, multi-purpose and dual-role counts.
func (r *Runner) ServerIdentification() (Report, error) {
	rep := Report{ID: "E2", Title: "§2.2.2 — Web server identification"}
	wk, _, err := r.Week45()
	if err != nil {
		return rep, err
	}
	res := wk.Servers
	nHTTPS := 0
	for _, s := range res.Servers {
		if s.HTTPS {
			nHTTPS++
		}
	}
	// ServerBytes counts each sample once per server endpoint, so
	// machine-to-machine samples appear twice: a slight overestimate.
	peeringBytes := wk.Counts.PeeringTCPBytes + wk.Counts.PeeringUDPBytes
	srvShare := float64(res.ServerBytes) / float64(peeringBytes)
	if srvShare > 1 {
		srvShare = 1
	}
	rep.addf("identified server IPs", "~1.5M", "%d", len(res.Servers))
	rep.addf("of which HTTPS", "250K", "%d", nHTTPS)
	rep.addf("443-candidate funnel", "1.5M → 500K → 250K", "%d → %d → %d",
		res.Candidates443, res.Responded443, res.Valid443)
	rep.addf("server share of peering traffic", ">70%", "%s", pct(srvShare))
	rep.addf("multi-purpose servers (multi-port)", "350K of 1.5M", "%d of %d",
		res.MultiPurpose(), len(res.Servers))
	rep.addf("dual-role (also client)", "200K of 1.5M", "%d of %d",
		res.DualRole(), len(res.Servers))
	sc := oracle.ServersByEvidence(r.Env.World, wk.Truth, res, r.Env.Crawler)
	rep.addf("precision vs ground truth", "-", "%d of %d (%s)", sc.TruePositives, sc.Identified, pct(sc.Precision))
	rep.addf("recall of sampled servers", "-", "%d of %d (%s)", sc.Found, sc.Sampled, pct(sc.Recall))
	rep.addf("world servers missed: never sampled / sampled", "-", "%d / %d", sc.MissedUnsampled, sc.MissedSampled)
	rep.addf("sampled misses: no evidence / with evidence", "-", "%d / %d", sc.MissedOpaque, sc.MissedEvidence)
	rep.addf("misses with evidence: classifier / crawl-rejected", "-", "%d / %d%s",
		sc.ClassifierMissed, sc.MissedEvidence-sc.ClassifierMissed, rejectReasons(sc.CrawlRejected[:]))
	rep.addf("recall of servers with HTTP in a snippet", "-", "%d of %d (%s)", sc.HTTPFound, sc.HTTPEvidence, pct(sc.HTTPRecall))
	rep.addf("recall of crawl-validatable 443-only servers", "-", "%d of %d (%s)", sc.Found443, sc.Validatable443, pct(sc.HTTPSRecall))
	return rep, nil
}

// Fig2RankCurve reproduces Figure 2: per-server-IP traffic shares.
func (r *Runner) Fig2RankCurve() (Report, error) {
	rep := Report{ID: "E3", Title: "Fig. 2 — traffic per server IP, ranked"}
	wk, _, err := r.Week45()
	if err != nil {
		return rep, err
	}
	curve := visibility.RankCurve(wk.Servers)
	rep.series("rank-curve", curve)
	rep.addf("top-34 server IPs' traffic share", ">6%", "%s", pct(visibility.TopShare(curve, 34)))
	if len(curve) > 0 {
		rep.addf("single heaviest server IP share", ">0.5% exists", "%s", pct(curve[0]))
	}
	rep.addf("observed server IPs", "~1.5M", "%d", len(curve))
	return rep, nil
}

// Table1Summary reproduces Table 1: peering- and server-traffic views of
// IPs, ASes, prefixes and countries, against the world's ground truth.
func (r *Runner) Table1Summary() (Report, error) {
	rep := Report{ID: "E4", Title: "Table 1 — IXP summary statistics, week 45"}
	wk, agg, err := r.Week45()
	if err != nil {
		return rep, err
	}
	w := r.Env.World
	all := agg.Summarize(nil)
	srv := agg.Summarize(serverFilter(wk.Servers))

	truthASes := len(w.ASes)
	truthPrefixes := len(w.Prefixes)
	truthCountries := len(w.GeoDB().Countries())

	rep.addf("peering IPs", "232,460,635", "%d", all.IPs)
	rep.addf("peering ASes seen", "42,825 of ~43K", "%d of %d (%s)",
		all.ASes, truthASes, pct(ratio(all.ASes, truthASes)))
	rep.addf("peering prefixes seen", "445,051 of 450K+", "%d of %d (%s)",
		all.Prefixes, truthPrefixes, pct(ratio(all.Prefixes, truthPrefixes)))
	rep.addf("peering countries seen", "242 of ~250", "%d of %d",
		all.Countries, truthCountries)
	rep.addf("server IPs", "1,488,286", "%d", srv.IPs)
	rep.addf("server ASes seen", "19,824 (~50% of routed)", "%d (%s)",
		srv.ASes, pct(ratio(srv.ASes, truthASes)))
	rep.addf("server prefixes seen", "75,841 (~17%)", "%d (%s)",
		srv.Prefixes, pct(ratio(srv.Prefixes, truthPrefixes)))
	rep.addf("server countries seen", "200 (~80%)", "%d (%s)",
		srv.Countries, pct(ratio(srv.Countries, truthCountries)))
	return rep, nil
}

// Fig3CountryShares reproduces Figure 3: the percentage of observed IPs
// per country.
func (r *Runner) Fig3CountryShares() (Report, error) {
	rep := Report{ID: "E5", Title: "Fig. 3 — percentage of IPs per country"}
	_, agg, err := r.Week45()
	if err != nil {
		return rep, err
	}
	shares := agg.CountryShares(nil)
	total := 0
	for _, s := range shares {
		total += s.Count
	}
	series := make([]float64, 0, len(shares))
	for _, s := range shares {
		series = append(series, ratio(s.Count, total))
	}
	rep.series("country-shares", series)
	rep.addf("countries observed", "242", "%d", len(shares))
	if len(shares) >= 3 {
		rep.addf("top country", "US (>5% band)", "%s (%s)", shares[0].Key, pct(ratio(shares[0].Count, total)))
		rep.addf("2nd country", "DE", "%s (%s)", shares[1].Key, pct(ratio(shares[1].Count, total)))
		rep.addf("3rd country", "CN", "%s (%s)", shares[2].Key, pct(ratio(shares[2].Count, total)))
	}
	return rep, nil
}

// Table2Top10 reproduces Table 2: top-10 countries and networks by IPs
// and by traffic, for all peering traffic and the server subset.
func (r *Runner) Table2Top10() (Report, error) {
	rep := Report{ID: "E6", Title: "Table 2 — top-10 contributors, week 45"}
	wk, agg, err := r.Week45()
	if err != nil {
		return rep, err
	}
	filter := serverFilter(wk.Servers)
	allByIPs, allByBytes := agg.TopCountries(10, nil)
	srvByIPs, srvByBytes := agg.TopCountries(10, filter)
	rep.addf("all IPs: top country", "US", "%s", first(allByIPs))
	rep.addf("all traffic: top country", "DE", "%s", firstByBytes(allByBytes))
	rep.addf("server IPs: top country", "DE", "%s", first(srvByIPs))
	rep.addf("server traffic: top country", "US", "%s", firstByBytes(srvByBytes))
	rep.addf("all IPs top-10", "US DE CN RU IT FR GB TR UA JP", "%s", keysOf(allByIPs))
	rep.addf("server IPs top-10", "DE US RU FR GB CN NL CZ IT UA", "%s", keysOf(srvByIPs))

	_, netByBytes := agg.TopASNs(10, filter)
	w := r.Env.World
	names := make([]string, 0, len(netByBytes))
	for _, n := range netByBytes {
		names = append(names, r.asLabel(n.ASN))
	}
	acmeASN := w.ASes[w.Orgs[w.Special.AcmeCDN].HomeAS].ASN
	topIsAcme := len(netByBytes) > 0 && netByBytes[0].ASN == acmeASN
	rep.addf("server traffic: top network", "Akamai", "%s (acme-cdn first: %v)", names[0], topIsAcme)
	rep.addf("server traffic networks top-10", "Akamai Google Hetzner VKontakte ...", "%v", names)
	return rep, nil
}

func first(s []visibility.Share) string {
	if len(s) == 0 {
		return "-"
	}
	return s[0].Key
}

// firstByBytes picks the heaviest entry by traffic volume, regardless
// of the slice's sort order (ties break to the lexicographically
// smaller key, matching the by-bytes rankings' deterministic order).
func firstByBytes(s []visibility.Share) string {
	if len(s) == 0 {
		return "-"
	}
	best := 0
	for i := 1; i < len(s); i++ {
		if s[i].Bytes > s[best].Bytes ||
			(s[i].Bytes == s[best].Bytes && s[i].Key < s[best].Key) {
			best = i
		}
	}
	return s[best].Key
}

func keysOf(s []visibility.Share) string {
	out := ""
	for i, sh := range s {
		if i > 0 {
			out += " "
		}
		out += sh.Key
	}
	return out
}

// asLabel names an AS using the owning org where one exists.
func (r *Runner) asLabel(asn uint32) string {
	w := r.Env.World
	idx, ok := w.ASIndexByASN(asn)
	if !ok {
		return fmt.Sprintf("AS%d", asn)
	}
	for i := range w.Orgs {
		if w.Orgs[i].HomeAS == idx {
			return w.Orgs[i].Name
		}
	}
	return fmt.Sprintf("AS%d", asn)
}

// Table3LocalGlobal reproduces Table 3: the A(L)/A(M)/A(G) breakdown.
func (r *Runner) Table3LocalGlobal() (Report, error) {
	rep := Report{ID: "E7", Title: "Table 3 — IXP as local yet global player"}
	wk, agg, err := r.Week45()
	if err != nil {
		return rep, err
	}
	classes := r.distanceClasses()
	peer := agg.LocalGlobal(classes, nil)
	srv := agg.LocalGlobal(classes, serverFilter(wk.Servers))

	fmtRow := func(v [3]float64) string {
		return fmt.Sprintf("%s / %s / %s",
			pct(v[routing.ClassLocal]), pct(v[routing.ClassMiddle]), pct(v[routing.ClassGlobal]))
	}
	rep.add("peering IPs A(L)/A(M)/A(G)", "42.3% / 45.0% / 12.7%", fmtRow(peer.IPs))
	rep.add("peering prefixes", "10.1% / 34.1% / 55.8%", fmtRow(peer.Prefixes))
	rep.add("peering ASes", "1.0% / 48.9% / 50.1%", fmtRow(peer.ASes))
	rep.add("peering traffic", "67.3% / 28.4% / 4.3%", fmtRow(peer.Traffic))
	rep.add("server IPs", "52.9% / 41.2% / 5.9%", fmtRow(srv.IPs))
	rep.add("server prefixes", "17.2% / 61.9% / 20.9%", fmtRow(srv.Prefixes))
	rep.add("server ASes", "2.2% / 61.5% / 36.3%", fmtRow(srv.ASes))
	rep.add("server traffic", "82.6% / 17.35% / 0.05%", fmtRow(srv.Traffic))
	return rep, nil
}

// rejectReasons renders the non-zero crawl rejection counts, indexed by
// certsim.RejectReason, as " (reason n, ...)"; empty when there are none.
func rejectReasons(counts []int) string {
	var parts []string
	for r, n := range counts {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", certsim.RejectReason(r), n))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, ", ") + ")"
}
