// Package oracle scores the analysis products against the ground truth
// of the synthetic world that produced the traffic. The golden suites
// prove that code paths agree with each other; the oracle proves they
// agree with the world: the generator knows every server it built and
// every one it sampled in a week, so identification can be scored
// exactly, set against set, instead of by comparing counts.
package oracle

import (
	"slices"

	"ixplens/internal/certsim"
	"ixplens/internal/core/webserver"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/traffic"
)

// ServerScore scores one week's server identification. Sets are keyed
// by IP: a false positive cannot stand in for a miss.
type ServerScore struct {
	// Identified is the number of servers the result names, and
	// TruePositives how many of them are some world server's IP.
	Identified, TruePositives int
	// Precision is TruePositives / Identified (0 for an empty result).
	Precision float64

	// Sampled is the number of distinct world servers the week's traffic
	// sampled, and Found how many of them the result names.
	Sampled, Found int
	// Recall is Found / Sampled (0 when nothing was sampled).
	Recall float64

	// The world servers the result misses, by why: MissedUnsampled never
	// appeared in the week's samples, so no analysis of the capture could
	// name them; MissedSampled were sampled but not identified, the
	// analysis' own misses. MissedSampled == Sampled - Found.
	MissedUnsampled, MissedSampled int

	// The rest is filled by ServersByEvidence alone.
	//
	// MissedSampled split by the strongest evidence the server's samples
	// carried: MissedOpaque had none (no analysis of the snippets could
	// name them), MissedEvidence had an HTTP line or field, or a port-443
	// exchange. MissedOpaque + MissedEvidence == MissedSampled.
	MissedOpaque, MissedEvidence int
	// MissedEvidence split by where the analysis dropped them:
	// CrawlRejected counts port-443-only servers by the crawl check that
	// rejected them (indexed by certsim.RejectReason; RejectNone stays
	// 0), ClassifierMissed the rest — HTTP evidence the classifier did not
	// turn into a server, or a candidate that validated and still went
	// missing.
	CrawlRejected    [certsim.NumRejectReasons]int
	ClassifierMissed int
	// HTTPEvidence is the number of sampled servers with HTTP evidence,
	// HTTPFound how many of them the result names; Validatable443 the
	// number of port-443-only sampled servers the crawl validates,
	// Found443 how many of them the result names. The recalls are their
	// ratios (0 for an empty set).
	HTTPEvidence, HTTPFound  int
	Validatable443, Found443 int
	HTTPRecall, HTTPSRecall  float64
}

// Servers scores res against world, given the indices (into
// world.Servers) of the servers the week's traffic sampled, as
// traffic.WeekStats.Sampled records them.
func Servers(world *netmodel.World, sampled []int32, res *webserver.Result) ServerScore {
	wasSampled := make([]bool, len(world.Servers))
	for _, si := range sampled {
		wasSampled[si] = true
	}
	isServer := make(map[packet.IPv4Addr]bool, len(world.Servers))
	var sc ServerScore
	for i := range world.Servers {
		ip := world.Servers[i].IP
		isServer[ip] = true
		_, found := res.Servers[ip]
		switch {
		case wasSampled[i] && found:
			sc.Sampled++
			sc.Found++
		case wasSampled[i]:
			sc.Sampled++
			sc.MissedSampled++
		case !found:
			sc.MissedUnsampled++
		}
	}
	sc.Identified = len(res.Servers)
	for ip := range res.Servers {
		if isServer[ip] {
			sc.TruePositives++
		}
	}
	sc.Precision = ratio(sc.TruePositives, sc.Identified)
	sc.Recall = ratio(sc.Found, sc.Sampled)
	return sc
}

// MissSplit splits server IPs an analysis did not name by why, as
// ServerScore splits its misses.
type MissSplit struct {
	// NeverSampled never appeared in the week's samples; SampledMissed
	// were sampled but not identified.
	NeverSampled, SampledMissed int
}

// SplitMisses splits ips, server IPs the week's analysis did not name,
// given the indices of the servers its traffic sampled (sorted, as
// traffic.WeekStats.Sampled holds them). An IP that is no world server
// counts in neither.
func SplitMisses(world *netmodel.World, sampled []int32, ips []packet.IPv4Addr) MissSplit {
	var ms MissSplit
	for _, ip := range ips {
		idx, ok := world.ServerByIP(ip)
		if !ok {
			continue
		}
		if _, hit := slices.BinarySearch(sampled, idx); hit {
			ms.SampledMissed++
		} else {
			ms.NeverSampled++
		}
	}
	return ms
}

// ServersByEvidence is Servers over truth.Sampled, with the sampled
// misses split by the evidence truth.Evidence records for each server
// and the port-443-only ones further by crawl, the crawler the analysis
// validated candidates with (its checks rerun here for the server's IP
// and the week).
func ServersByEvidence(world *netmodel.World, truth traffic.WeekStats, res *webserver.Result, crawl *certsim.Crawler) ServerScore {
	sc := Servers(world, truth.Sampled, res)
	for i, si := range truth.Sampled {
		ip := world.Servers[si].IP
		_, found := res.Servers[ip]
		switch truth.Evidence[i] {
		case traffic.EvidenceOpaque:
			if !found {
				sc.MissedOpaque++
			}
			continue
		case traffic.EvidenceHTTP:
			sc.HTTPEvidence++
			if found {
				sc.HTTPFound++
			} else {
				sc.MissedEvidence++
				sc.ClassifierMissed++
			}
			continue
		}
		_, reason := certsim.ValidateDetail(crawl.Crawl(ip, truth.Week), crawl.Roots(), truth.Week)
		if reason == certsim.RejectNone {
			sc.Validatable443++
			if found {
				sc.Found443++
			}
		}
		if found {
			continue
		}
		sc.MissedEvidence++
		if reason == certsim.RejectNone {
			sc.ClassifierMissed++
		} else {
			sc.CrawlRejected[reason]++
		}
	}
	sc.HTTPRecall = ratio(sc.HTTPFound, sc.HTTPEvidence)
	sc.HTTPSRecall = ratio(sc.Found443, sc.Validatable443)
	return sc
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
