package oracle

import (
	"ixplens/internal/analysis"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
)

// LinkScore scores one organization's link attribution (§5, Fig. 7):
// the off-link share measured over the IPs the analysis attributed to
// the organization, against the same attribution over the IPs the world
// gave it.
type LinkScore struct {
	// MeasuredOffLink is the share of the organization's traffic not
	// carried by its own member's peering link, over the measured server
	// set; TrueOffLink the same over its true server IPs; ErrorPP their
	// difference in percentage points.
	MeasuredOffLink, TrueOffLink, ErrorPP float64
	// MeasuredBytes is the traffic the measured set attributes to the
	// organization, ForeignBytes the part of it whose server IP the
	// organization does not own, and ForeignShare their ratio.
	MeasuredBytes, ForeignBytes uint64
	ForeignShare                float64
}

// Links scores org's link attribution over one week's flow product:
// measured names the IPs the analysis attributed to org (its cluster).
func Links(world *netmodel.World, org int32, lp *analysis.LinksProduct, measured func(packet.IPv4Addr) bool) LinkScore {
	owns := func(ip packet.IPv4Addr) bool {
		idx, ok := world.ServerByIP(ip)
		return ok && world.Servers[idx].Org == org
	}
	home := world.Orgs[org].HomeAS
	m := lp.LinkStats(home, nil, measured)
	sc := LinkScore{
		MeasuredOffLink: m.OffLinkShare(),
		TrueOffLink:     lp.LinkStats(home, nil, owns).OffLinkShare(),
		MeasuredBytes:   m.TotalBytes,
	}
	sc.ErrorPP = 100 * (sc.MeasuredOffLink - sc.TrueOffLink)
	// The attribution credits a flow to its source when the set holds
	// it, else to its destination: the server IP LinkStats counted.
	for i := range lp.Flows {
		f := &lp.Flows[i]
		ip := f.Src
		if !measured(ip) {
			if ip = f.Dst; !measured(ip) {
				continue
			}
		}
		if !owns(ip) {
			sc.ForeignBytes += f.Bytes
		}
	}
	if sc.MeasuredBytes > 0 {
		sc.ForeignShare = float64(sc.ForeignBytes) / float64(sc.MeasuredBytes)
	}
	return sc
}
