// Package hetero quantifies the network heterogenization of Section 5:
// how organizations spread their servers over many ASes (Fig. 6b), how
// ASes host servers of many organizations (Fig. 6c), and how an
// organization's traffic is split between its direct peering link and
// other member links at the IXP (Fig. 7) — the property that breaks
// traditional AS-level traffic attribution.
package hetero

import (
	"sort"

	"ixplens/internal/core/cluster"
	"ixplens/internal/core/dissect"
	"ixplens/internal/entity"
	"ixplens/internal/packet"
)

// OrgPoint is one dot of Fig. 6(b): an organization with its server
// count and AS footprint.
type OrgPoint struct {
	Authority string
	Servers   int
	ASes      int
}

// OrgSpread derives Fig. 6(b) from a clustering result: every cluster
// with at least minServers server IPs, with its AS footprint. Clusters
// must have been built with an ASN resolver for footprints to exist.
func OrgSpread(res *cluster.Result, minServers int) []OrgPoint {
	out := make([]OrgPoint, 0, len(res.Clusters))
	for _, c := range res.Clusters {
		if len(c.IPs) < minServers {
			continue
		}
		out = append(out, OrgPoint{Authority: c.Authority, Servers: len(c.IPs), ASes: len(c.ASNs)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Servers != out[j].Servers {
			return out[i].Servers > out[j].Servers
		}
		return out[i].Authority < out[j].Authority
	})
	return out
}

// ASPoint is one dot of Fig. 6(c): an AS with the number of (≥minServer)
// organizations whose servers it hosts and its total hosted server IPs.
type ASPoint struct {
	ASN     uint32
	Orgs    int
	Servers int
}

// ASHosting derives Fig. 6(c): for every AS, how many organizations
// (clusters with at least minServers IPs overall) have servers inside
// it, and how many server IPs it hosts in total. Organization names are
// interned to dense IDs for the per-AS membership sets, so the scan
// hashes uint32 keys instead of authority strings.
func ASHosting(res *cluster.Result, minServers int) []ASPoint {
	orgIDs := entity.NewStrings()
	orgsPerAS := make(map[uint32]map[uint32]bool)
	serversPerAS := make(map[uint32]int)
	for _, c := range res.Clusters {
		qualifies := len(c.IPs) >= minServers
		var org uint32
		if qualifies {
			org = orgIDs.Intern(c.Authority)
		}
		for asn, n := range c.ASNs {
			serversPerAS[asn] += n
			if qualifies {
				set := orgsPerAS[asn]
				if set == nil {
					set = make(map[uint32]bool)
					orgsPerAS[asn] = set
				}
				set[org] = true
			}
		}
	}
	out := make([]ASPoint, 0, len(serversPerAS))
	for asn, n := range serversPerAS {
		out = append(out, ASPoint{ASN: asn, Orgs: len(orgsPerAS[asn]), Servers: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Orgs != out[j].Orgs {
			return out[i].Orgs > out[j].Orgs
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// CountASesHostingAtLeast returns how many ASes host servers of at least
// k organizations (the paper: >500 ASes above 5 orgs, >200 above 10).
func CountASesHostingAtLeast(points []ASPoint, k int) int {
	n := 0
	for _, p := range points {
		if p.Orgs >= k {
			n++
		}
	}
	return n
}

// LinkStats accumulates, for one target organization, how its server
// traffic reaches each IXP member: over the direct peering link with the
// org's own member AS, or over other member links (servers hosted in
// third-party networks, or paths relayed through transit members).
type LinkStats struct {
	// HomeMember is the org's own member AS index.
	HomeMember int32
	// PerMember aggregates per counterparty member.
	PerMember map[int32]*MemberLink
	// TotalBytes is all observed traffic of the org's servers.
	TotalBytes uint64
	// DirectBytes is the share entering/leaving via the home member.
	DirectBytes uint64
	// directServers and offLinkServers partition the org's observed
	// servers by whether their traffic ever used the direct link. With an
	// entity table attached the keys are dense entity IDs, otherwise raw
	// addresses; both fit uint64.
	directServers  map[uint64]bool
	offLinkServers map[uint64]bool
	table          *entity.Table
}

// MemberLink is one member AS's view of the org's traffic.
type MemberLink struct {
	// Direct is traffic exchanged with the org's home member directly.
	Direct uint64
	// Total is all traffic involving the org's servers seen by this
	// member.
	Total uint64
}

// NewLinkStats prepares an accumulator for one organization.
func NewLinkStats(homeMember int32) *LinkStats {
	return NewLinkStatsWith(homeMember, nil)
}

// NewLinkStatsWith prepares an accumulator whose server sets are keyed
// by dense entity IDs from the shared table (nil table falls back to
// address keys; results are identical).
func NewLinkStatsWith(homeMember int32, table *entity.Table) *LinkStats {
	return &LinkStats{
		HomeMember:     homeMember,
		PerMember:      make(map[int32]*MemberLink),
		directServers:  make(map[uint64]bool),
		offLinkServers: make(map[uint64]bool),
		table:          table,
	}
}

// serverKey maps a server IP into the set-key space.
func (ls *LinkStats) serverKey(ip packet.IPv4Addr) uint64 {
	if ls.table != nil {
		return uint64(ls.table.Resolve(ip))
	}
	return uint64(ip)
}

// Observe processes one dissected record against the org's server set.
// analysis.LinksProduct.LinkStats replays a week's aggregated flows
// through the same attribution without another pass over the capture.
func (ls *LinkStats) Observe(rec *dissect.Record, isServer func(packet.IPv4Addr) bool) {
	if !rec.Class.IsPeering() {
		return
	}
	ls.ObserveFlow(rec.SrcIP, rec.DstIP, rec.InMember, rec.OutMember, rec.Bytes, isServer)
}

// ObserveFlow attributes one (possibly pre-aggregated) peering flow:
// src/dst endpoints, the ingress and egress member, and the summed
// bytes. Because every record of one flow identity takes the same
// branch here, attributing an aggregated flow once is bit-identical to
// attributing each of its records — the property that lets the fused
// analysis pass persist a generic flow product and replay it for any
// organization's server set. The server-side check prefers src, like
// the per-record path always has.
func (ls *LinkStats) ObserveFlow(src, dst packet.IPv4Addr, in, out int32, bytes uint64, isServer func(packet.IPv4Addr) bool) {
	var serverIP packet.IPv4Addr
	var serverSide, clientSide int32
	switch {
	case isServer(src):
		serverIP, serverSide, clientSide = src, in, out
	case isServer(dst):
		serverIP, serverSide, clientSide = dst, out, in
	default:
		return
	}
	ml := ls.PerMember[clientSide]
	if ml == nil {
		ml = &MemberLink{}
		ls.PerMember[clientSide] = ml
	}
	ml.Total += bytes
	ls.TotalBytes += bytes
	if serverSide == ls.HomeMember {
		ml.Direct += bytes
		ls.DirectBytes += bytes
		ls.directServers[ls.serverKey(serverIP)] = true
	} else {
		ls.offLinkServers[ls.serverKey(serverIP)] = true
	}
}

// NumDirectServers counts servers seen at least once over the direct
// peering link.
func (ls *LinkStats) NumDirectServers() int { return len(ls.directServers) }

// OffLinkShare is the fraction of the org's traffic that does NOT use
// the direct peering link (11.1% for Akamai in the paper).
func (ls *LinkStats) OffLinkShare() float64 {
	if ls.TotalBytes == 0 {
		return 0
	}
	return 1 - float64(ls.DirectBytes)/float64(ls.TotalBytes)
}

// ServersOnlyOffLink counts servers never seen over the direct link
// (15K of 28K Akamai servers in the paper).
func (ls *LinkStats) ServersOnlyOffLink() int {
	n := 0
	for k := range ls.offLinkServers {
		if !ls.directServers[k] {
			n++
		}
	}
	return n
}

// LinkPoint is one dot of Fig. 7(b)/(c): a member AS with the share of
// its org traffic arriving over the direct link (x) and its share of
// the org's total traffic (y).
type LinkPoint struct {
	Member       int32
	DirectShare  float64
	TrafficShare float64
}

// Points derives the Fig. 7 scatter.
func (ls *LinkStats) Points() []LinkPoint {
	out := make([]LinkPoint, 0, len(ls.PerMember))
	for m, ml := range ls.PerMember {
		if m == ls.HomeMember || ml.Total == 0 {
			continue
		}
		out = append(out, LinkPoint{
			Member:       m,
			DirectShare:  float64(ml.Direct) / float64(ml.Total),
			TrafficShare: float64(ml.Total) / float64(ls.TotalBytes),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out
}
