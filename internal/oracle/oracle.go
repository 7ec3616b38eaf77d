// Package oracle scores the analysis products against the ground truth
// of the synthetic world that produced the traffic. The golden suites
// prove that code paths agree with each other; the oracle proves they
// agree with the world: the generator knows every server it built and
// every one it sampled in a week, so identification can be scored
// exactly, set against set, instead of by comparing counts.
package oracle

import (
	"slices"

	"ixplens/internal/core/webserver"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
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

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
