package oracle

import (
	"slices"

	"ixplens/internal/core/churn"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/traffic"
)

// StableScore scores the churn tracker's stable pool at its last
// observed week (§4, Fig. 4a) against the servers the world built
// stable (netmodel.ActStable: active in every study week).
type StableScore struct {
	// Labelled is the number of IPs in the stable pool — identified in
	// every observed week — and TruePositives how many of them are IPs
	// of ActStable servers; Precision is their ratio.
	Labelled, TruePositives int
	Precision               float64
	// StableSampled is the number of ActStable servers the last week's
	// traffic sampled, and Found how many of them are labelled stable;
	// Recall is their ratio.
	StableSampled, Found int
	Recall               float64
	// The StableSampled servers not labelled stable, by why:
	// MissedUnsampled went unsampled in some observed week, so no
	// analysis of the captures could label them stable; Mislabelled were
	// sampled in every observed week and still not labelled.
	// MissedUnsampled + Mislabelled == StableSampled - Found.
	MissedUnsampled, Mislabelled int
	// MislabelledMisses splits the Mislabelled servers' misses: one
	// count per (server, observed week) in which identification did not
	// name it, indexed by the strongest evidence its samples carried
	// that week (traffic.Evidence).
	MislabelledMisses [traffic.EvidenceHTTP + 1]int
	// MeasuredShare is Labelled over the IPs identified in the last week,
	// the stable pool share Fig. 4a reports; TrueShare is StableSampled
	// over the servers the last week sampled.
	MeasuredShare, TrueShare float64
}

// Stable scores tracker's last observed week against world, given each
// tracked week's generator truth, parallel to the tracker's weeks (a gap
// week's truth is not read).
func Stable(world *netmodel.World, tracker *churn.Tracker, truths []traffic.WeekStats) StableScore {
	var sc StableScore
	seen := map[packet.IPv4Addr]int{}
	sampled := make([]int, len(world.Servers))
	observed, last := 0, -1
	for i := 0; i < tracker.NumWeeks(); i++ {
		obs := tracker.Week(i)
		if obs.Gap {
			continue
		}
		observed++
		last = i
		for ip := range obs.Servers {
			seen[ip]++
		}
		for _, si := range truths[i].Sampled {
			sampled[si]++
		}
	}
	if last < 0 {
		return sc
	}
	final := tracker.Week(last).Servers
	for ip := range final {
		if seen[ip] != observed {
			continue
		}
		sc.Labelled++
		if idx, ok := world.ServerByIP(ip); ok && world.Servers[idx].Activity == netmodel.ActStable {
			sc.TruePositives++
		}
	}
	lastSampled := truths[last].Sampled
	for _, si := range lastSampled {
		srv := &world.Servers[si]
		if srv.Activity != netmodel.ActStable {
			continue
		}
		sc.StableSampled++
		switch {
		case seen[srv.IP] == observed:
			sc.Found++
		case sampled[si] < observed:
			sc.MissedUnsampled++
		default:
			sc.Mislabelled++
			for i := 0; i <= last; i++ {
				if obs := tracker.Week(i); !obs.Gap {
					if _, ok := obs.Servers[srv.IP]; !ok {
						// A truth without evidence grades nothing.
						if j, _ := slices.BinarySearch(truths[i].Sampled, si); j < len(truths[i].Evidence) {
							sc.MislabelledMisses[truths[i].Evidence[j]]++
						}
					}
				}
			}
		}
	}
	sc.Precision = ratio(sc.TruePositives, sc.Labelled)
	sc.Recall = ratio(sc.Found, sc.StableSampled)
	sc.MeasuredShare = ratio(sc.Labelled, len(final))
	sc.TrueShare = ratio(sc.StableSampled, len(lastSampled))
	return sc
}
