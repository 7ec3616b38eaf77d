package oracle

import (
	"sort"

	"ixplens/internal/core/blindspot"
	"ixplens/internal/dnssim"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
)

// UnseenCategory is the Section 3.3 four-way classification of servers
// discovered by active measurements but invisible at the IXP.
type UnseenCategory uint8

// Categories, in the paper's order.
const (
	// CatPrivateCluster are CDN servers serving only their hosting AS.
	CatPrivateCluster UnseenCategory = iota
	// CatFarRegion are servers of region-aware platforms far from the IXP.
	CatFarRegion
	// CatInvalidURIHandler are catch-all servers for invalid URIs.
	CatInvalidURIHandler
	// CatSmallRemote are servers of small, geographically distant orgs.
	CatSmallRemote
	// CatOther is anything else (e.g. sampling misses).
	CatOther
)

// String names the category.
func (c UnseenCategory) String() string {
	switch c {
	case CatPrivateCluster:
		return "private-cluster"
	case CatFarRegion:
		return "far-region"
	case CatInvalidURIHandler:
		return "invalid-uri-handler"
	case CatSmallRemote:
		return "small-remote-org"
	default:
		return "other"
	}
}

// ClassifyUnseen explains, against ground truth, why each discovered
// server is invisible at the IXP. (The paper reaches its classification
// by manual investigation; the reproduction can consult the generator.)
func ClassifyUnseen(w *netmodel.World, discovered map[packet.IPv4Addr]bool, ixpServers map[packet.IPv4Addr]bool) map[UnseenCategory]int {
	out := make(map[UnseenCategory]int)
	for ip := range discovered {
		if ixpServers[ip] {
			continue
		}
		idx, ok := w.ServerByIP(ip)
		if !ok {
			out[CatOther]++
			continue
		}
		s := &w.Servers[idx]
		switch {
		case s.Deploy == netmodel.DeployPrivateCluster:
			out[CatPrivateCluster]++
		case s.Is(netmodel.SrvInvalidURIHandler):
			out[CatInvalidURIHandler]++
		case s.Deploy == netmodel.DeployFarRegion && w.Orgs[s.Org].Kind != netmodel.OrgSmall:
			out[CatFarRegion]++
		case s.Deploy == netmodel.DeployFarRegion,
			w.Orgs[s.Org].Kind == netmodel.OrgSmall,
			w.Orgs[s.Org].ServerCount < 10:
			// Small organizations whose servers carry too little
			// traffic to surface in the IXP's samples.
			out[CatSmallRemote]++
		default:
			out[CatOther]++
		}
	}
	return out
}

// CaseStudy is the per-organization visibility case study (Akamai in
// the paper: 28K server IPs in 278 ASes at the IXP, ~100K in 700 ASes
// via active measurements, 100K+ in 1000+ ASes ground truth).
type CaseStudy struct {
	VisibleServers int
	VisibleASes    int
	ActiveServers  int
	ActiveASes     int
	TruthServers   int
	TruthASes      int
}

// StudyOrg compares the IXP's view of one organization with active
// discovery and ground truth. clusterIPs is the org's cluster from the
// Section 5 methodology; orgIdx the ground-truth organization.
func StudyOrg(w *netmodel.World, dns *dnssim.DB, clusterIPs []packet.IPv4Addr, orgIdx int32, resolversPerDomain int) CaseStudy {
	var cs CaseStudy
	visASes := make(map[int32]bool)
	for _, ip := range clusterIPs {
		cs.VisibleServers++
		if idx, ok := w.ServerByIP(ip); ok {
			visASes[w.Servers[idx].AS] = true
		}
	}
	cs.VisibleASes = len(visASes)

	// Active discovery: query all of the org's site domains through
	// many resolvers.
	var domains []string
	for _, si := range dns.SitesOfOrg(orgIdx) {
		domains = append(domains, dns.Site(si).Domain)
	}
	sort.Strings(domains)
	found := blindspot.Discover(dns, domains, resolversPerDomain, nil, w.Cfg.Seed)
	activeASes := make(map[int32]bool)
	for ip := range found.Discovered {
		if idx, ok := w.ServerByIP(ip); ok && w.Servers[idx].Org == orgIdx {
			cs.ActiveServers++
			activeASes[w.Servers[idx].AS] = true
		}
	}
	cs.ActiveASes = len(activeASes)

	truthASes := make(map[int32]bool)
	for _, s := range w.OrgServers(orgIdx) {
		cs.TruthServers++
		truthASes[s.AS] = true
	}
	cs.TruthASes = len(truthASes)
	return cs
}
