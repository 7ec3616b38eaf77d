package oracle

import (
	"slices"

	"ixplens/internal/ispview"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/traffic"
)

// ISPScore scores the Tier-1 ISP cross-check (§3.1, E9) against the
// world: why each server IP in the ISP's logs is missing from the IXP's
// identified set, and whether the overlap both vantage points name is
// made of real servers.
type ISPScore struct {
	// ISPOnly is the number of ISP-logged server IPs the IXP did not
	// identify, split by why: NotVisible cannot cross the public fabric
	// at all (private clusters), Unsampled were visible and active but no
	// sampled frame touched them, and SampledMissed were sampled but not
	// identified, indexed by the strongest evidence their samples carried
	// (traffic.Evidence). An IP that is no world server counts in none.
	ISPOnly, NotVisible, Unsampled int
	SampledMissed                  [traffic.EvidenceHTTP + 1]int
	// Confirmed is the number of IPs both vantage points name, and
	// ConfirmedTrue how many of them are world servers; Precision is
	// their ratio.
	Confirmed, ConfirmedTrue int
	Precision                float64
}

// ISP scores the cross-check of log against ixp, the server IPs the
// IXP identified in the week truth describes.
func ISP(world *netmodel.World, truth traffic.WeekStats, log *ispview.Log, ixp map[packet.IPv4Addr]bool) ISPScore {
	var sc ISPScore
	for ip := range log.ServerIPs {
		idx, isServer := world.ServerByIP(ip)
		if ixp[ip] {
			sc.Confirmed++
			if isServer {
				sc.ConfirmedTrue++
			}
			continue
		}
		sc.ISPOnly++
		if !isServer {
			continue
		}
		i, sampled := slices.BinarySearch(truth.Sampled, idx)
		switch {
		case !world.Servers[idx].VisibleAtIXP():
			sc.NotVisible++
		case !sampled:
			sc.Unsampled++
		default:
			sc.SampledMissed[truth.Evidence[i]]++
		}
	}
	sc.Precision = ratio(sc.ConfirmedTrue, sc.Confirmed)
	return sc
}
