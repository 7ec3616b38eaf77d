// Package dnssim derives a deterministic DNS view from a netmodel world:
// reverse (PTR) records for server IPs, SOA authority resolution for
// registrable domains, the population of web sites with their hosting
// and DNS-outsourcing arrangements, and a set of open resolvers usable
// for active measurements (the paper's 25K-resolver list, Section 2.3).
//
// The authority structure is what the paper's Section 5 clustering mines:
// an org that runs its own DNS has all of its domains lead to a common
// root (its primary domain); an org that outsources DNS mostly still
// reveals itself through the SOA admin contact, but its sloppily
// delegated zones lead to the provider instead, which is exactly what
// pushes its servers from clustering step 1 into the majority-vote
// step 2.
package dnssim

import (
	"fmt"
	"sort"
	"strings"

	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/randutil"
)

// Site is one web site: a registrable domain plus the org responsible
// for delivering its content.
type Site struct {
	// Domain is the registrable domain ("org00123.net").
	Domain string
	// Org is the organization owning the content.
	Org int32
	// ServedBy is the org index of the CDN delivering the site's
	// content, or -1 when the owner serves it itself. A quarter of the
	// popular content sites ride on the big CDNs, mirroring the
	// Akamai-serves-nbc.com situation the paper's attribution
	// discussion builds on.
	ServedBy int32
	// SOARoot is the authority domain the site's SOA record leads to.
	SOARoot string
	// Weight is the site's global popularity.
	Weight float64
}

// DeliveringOrg is the org whose servers answer for the site.
func (s *Site) DeliveringOrg() int32 {
	if s.ServedBy >= 0 {
		return s.ServedBy
	}
	return s.Org
}

// Resolver is one open recursive resolver usable for active queries.
type Resolver struct {
	IP packet.IPv4Addr
	AS int32
}

// DB is the derived DNS database. All methods are safe for concurrent
// use after New returns.
type DB struct {
	w *netmodel.World

	sites        []Site
	sitesByOrg   map[int32][]int32 // org -> indices into sites
	siteByDomain map[string]int32

	// asOwnerOrg maps an AS index to the org that owns it, if any.
	asOwnerOrg map[int32]int32

	// catchAll maps an AS index to its invalid-URI catch-all server IP,
	// for the ASes whose resolvers hijack a share of answers.
	catchAll map[int32]packet.IPv4Addr

	// soa maps a registrable domain to its authority root domain.
	soa map[string]string

	resolvers []Resolver
}

// New derives the DNS database from the world. Derivation is
// deterministic in the world's seed.
func New(w *netmodel.World) *DB {
	d := &DB{
		w:          w,
		sitesByOrg: make(map[int32][]int32),
		asOwnerOrg: make(map[int32]int32),
		soa:        make(map[string]string),
	}
	for i := range w.Orgs {
		if home := w.Orgs[i].HomeAS; home >= 0 {
			d.asOwnerOrg[home] = int32(i)
		}
	}
	d.catchAll = make(map[int32]packet.IPv4Addr)
	for i := range w.Servers {
		if w.Servers[i].Is(netmodel.SrvInvalidURIHandler) {
			d.catchAll[w.Servers[i].AS] = w.Servers[i].IP
		}
	}
	d.genSites()
	d.genResolvers()
	return d
}

// OwnerOrgOfAS returns the org owning the AS, if any.
func (d *DB) OwnerOrgOfAS(as int32) (int32, bool) {
	o, ok := d.asOwnerOrg[as]
	return o, ok
}

// zoneAuthority is the root a zone's SOA trail leads to. Self-hosted
// zones lead to the org's own domain. Outsourced zones usually still
// reveal the org (the SOA RNAME/admin contact names the organization);
// only sloppily delegated zones (~30%) lead to the provider instead —
// the situation that pushes servers into clustering step 2.
func (d *DB) zoneAuthority(orgIdx int32, domainKey uint64) string {
	o := &d.w.Orgs[orgIdx]
	if o.DNSProvider < 0 {
		return o.Domain
	}
	if randutil.HashUnit(uint64(d.w.Cfg.Seed), 0x50a, uint64(o.ID), domainKey) < 0.30 {
		return d.w.Orgs[o.DNSProvider].Domain
	}
	return o.Domain
}

// PublicDNSProviders lists the domains of the third-party DNS operators.
// Like the paper's knowledge of RIR domains and well-known DNS services,
// this is public information an analyst has independently of the IXP.
func (d *DB) PublicDNSProviders() []string {
	out := make([]string, 0, len(d.w.Special.DNSProviders))
	for _, p := range d.w.Special.DNSProviders {
		out = append(out, d.w.Orgs[p].Domain)
	}
	return out
}

// genSites builds the global site population: every org gets NumSites
// sites, weighted Zipf within the org and scaled by the org's traffic
// weight — the product drives both the Alexa-style ranking and the Host
// headers the traffic generator emits.
func (d *DB) genSites() {
	w := d.w
	for oi := range w.Orgs {
		o := &w.Orgs[oi]
		n := o.NumSites
		if n <= 0 {
			n = 1
		}
		zw := randutil.ZipfWeights(n, 1.1)
		zTotal := 0.0
		for _, v := range zw {
			zTotal += v
		}
		for k := 0; k < n; k++ {
			var domain string
			if k == 0 {
				domain = o.Domain
			} else {
				domain = fmt.Sprintf("site-%05d-%03d.%s", o.ID, k, siteTLD(o.ID, k))
			}
			soaRoot := d.zoneAuthority(int32(oi), uint64(k))
			if o.Kind == netmodel.OrgHoster && k > 0 {
				// Customer domains on shared hosting: the hoster manages
				// DNS for most, a third-party provider for the rest.
				if randutil.HashUnit(uint64(w.Cfg.Seed), uint64(o.ID), uint64(k), 0xd) < 0.40 {
					prov := w.Special.DNSProviders[int(randutil.Hash64(uint64(o.ID), uint64(k))%uint64(len(w.Special.DNSProviders)))]
					soaRoot = w.Orgs[prov].Domain
				}
			}
			// Sites often ride on a CDN: popular content heavily, and a
			// long tail of small customers on mass-market CDN products.
			servedBy := int32(-1)
			cdnProb := 0.0
			switch o.Kind {
			case netmodel.OrgContent, netmodel.OrgStreamer:
				cdnProb = 0.25
			case netmodel.OrgSmall:
				cdnProb = 0.08
			case netmodel.OrgHoster:
				// Customers of shared hosting increasingly front their
				// sites with mass-market CDNs.
				if k > 0 {
					cdnProb = 0.05
				}
			}
			if cdnProb > 0 && randutil.HashUnit(uint64(w.Cfg.Seed), 0xcd4, uint64(o.ID), uint64(k)) < cdnProb {
				cdns := []int32{w.Special.AcmeCDN, w.Special.AcmeCDN, w.Special.CloudShield, w.Special.EdgeCDN, w.Special.LimeCDN}
				servedBy = cdns[int(randutil.Hash64(0xcd5, uint64(o.ID), uint64(k))%uint64(len(cdns)))]
			}
			d.soa[domain] = soaRoot
			d.sites = append(d.sites, Site{
				Domain:   domain,
				Org:      int32(oi),
				ServedBy: servedBy,
				SOARoot:  soaRoot,
				Weight:   o.Weight * zw[k] / zTotal,
			})
			d.sitesByOrg[int32(oi)] = append(d.sitesByOrg[int32(oi)], int32(len(d.sites)-1))
		}
		// The org's infrastructure zone (server hostnames) also resolves.
		d.soa[o.Domain] = d.zoneAuthority(int32(oi), 0)
	}
	sort.SliceStable(d.sites, func(i, j int) bool { return d.sites[i].Weight > d.sites[j].Weight })
	// Re-index after sorting.
	d.sitesByOrg = make(map[int32][]int32, len(w.Orgs))
	d.siteByDomain = make(map[string]int32, len(d.sites))
	for i := range d.sites {
		d.sitesByOrg[d.sites[i].Org] = append(d.sitesByOrg[d.sites[i].Org], int32(i))
		d.siteByDomain[d.sites[i].Domain] = int32(i)
	}
}

func siteTLD(orgID int32, k int) string {
	tlds := []string{"com", "net", "org", "de", "fr", "ru", "nl", "it", "info"}
	return tlds[int(randutil.Hash64(uint64(orgID), uint64(k), 0x7)%uint64(len(tlds)))]
}

// Sites returns all sites sorted by descending popularity.
func (d *DB) Sites() []Site { return d.sites }

// SitesOfOrg returns the site indices of one org, most popular first.
func (d *DB) SitesOfOrg(org int32) []int32 { return d.sitesByOrg[org] }

// Site returns the site at index i.
func (d *DB) Site(i int32) *Site { return &d.sites[i] }

// SOA resolves the authority root of a registrable domain. Unknown
// domains report false, like an NXDOMAIN on the SOA chain.
func (d *DB) SOA(domain string) (string, bool) {
	root, ok := d.soa[domain]
	return root, ok
}

// RegistrableDomain extracts the registrable domain from a hostname
// ("edge-7.fra.acmecdn.net" -> "acmecdn.net"). The synthetic namespace
// uses either two- or three-label registrable domains ("co.uk" style).
func RegistrableDomain(hostname string) string {
	labels := strings.Split(hostname, ".")
	n := len(labels)
	if n < 2 {
		return hostname
	}
	// Handle the one compound TLD in use ("co.uk").
	if n >= 3 && labels[n-2] == "co" {
		return strings.Join(labels[n-3:], ".")
	}
	return strings.Join(labels[n-2:], ".")
}

// Hostname returns the forward DNS name of a server, if it has one. The
// name's registrable domain encodes who administers the machine's
// naming: the owning org, or the hosting company.
func (d *DB) Hostname(serverIdx int32) (string, bool) {
	s := &d.w.Servers[serverIdx]
	if !s.Is(netmodel.SrvHasPTR) {
		return "", false
	}
	o := &d.w.Orgs[s.Org]
	if s.Is(netmodel.SrvNamedByHoster) {
		owner, ok := d.asOwnerOrg[s.AS]
		if !ok {
			return "", false
		}
		a, b, c, dd := s.IP.Octets()
		return fmt.Sprintf("static-%d-%d-%d-%d.%s", a, b, c, dd, d.w.Orgs[owner].Domain), true
	}
	return fmt.Sprintf("edge-%d.%s", serverIdx, o.Domain), true
}

// PTR is the reverse-DNS lookup by IP.
func (d *DB) PTR(ip packet.IPv4Addr) (string, bool) {
	idx, ok := d.w.ServerByIP(ip)
	if !ok {
		return "", false
	}
	return d.Hostname(idx)
}

// genResolvers creates the open-resolver population: roughly one usable
// resolver per three ASes, biased toward eyeball networks, matching the
// paper's final list of ~25K resolvers across ~12K ASes.
func (d *DB) genResolvers() {
	w := d.w
	for i := range w.ASes {
		a := &w.ASes[i]
		h := randutil.Hash64(uint64(w.Cfg.Seed), uint64(i), 0x5e)
		p := 0.25
		if a.Role == netmodel.RoleEyeball {
			p = 0.55
		}
		if float64(h>>11)/float64(1<<53) >= p {
			continue
		}
		// One or two resolvers in this AS, addressed from its first prefix.
		n := 1 + int(h%2)
		if len(a.Prefixes) == 0 {
			continue
		}
		pfx := &w.Prefixes[a.Prefixes[0]]
		for k := 0; k < n; k++ {
			off := pfx.Prefix.NumAddrs()/2 + uint64(k) + 1
			if off >= pfx.Prefix.NumAddrs() {
				break
			}
			d.resolvers = append(d.resolvers, Resolver{
				IP: pfx.Prefix.First() + packet.IPv4Addr(off),
				AS: int32(i),
			})
		}
	}
}

// Resolvers returns the usable open resolvers.
func (d *DB) Resolvers() []Resolver { return d.resolvers }

// Resolve performs an active DNS query for a site domain through the
// resolver hosted in resolverAS, returning the server IP the authority
// would hand out. It reproduces CDN request routing:
//
//   - private-cluster servers are returned only to resolvers inside
//     their own AS (and shadow any other answer there),
//   - region-aware CDNs answer far-away resolvers from far-region
//     deployments,
//   - everyone else gets the org's best visible server.
//
// The boolean result is false when the domain does not exist.
func (d *DB) Resolve(domain string, resolverAS int32) (packet.IPv4Addr, bool) {
	// Some ASes run resolvers that hijack a share of answers toward
	// their own catch-all machines (the paper's invalid-URI category).
	if ip, hasCatchAll := d.catchAll[resolverAS]; hasCatchAll {
		if randutil.HashUnit(uint64(d.w.Cfg.Seed), 0xbad, uint64(resolverAS), randutil.Hash64(uint64(len(domain)), uint64(domain[0]))) < 0.03 {
			return ip, true
		}
	}
	si, ok := d.siteByDomain[domain]
	if !ok {
		return 0, false
	}
	site := &d.sites[si]
	w := d.w
	serving := site.DeliveringOrg()
	servers := w.OrgServers(serving)
	if len(servers) == 0 {
		return 0, false
	}
	o := &w.Orgs[serving]

	// Private clusters answer in-AS resolvers first.
	for i := range servers {
		if servers[i].Deploy == netmodel.DeployPrivateCluster && servers[i].AS == resolverAS {
			return servers[i].IP, true
		}
	}
	resolverFar := w.ASes[resolverAS].Distance >= 2 && !isNearCountry(w.ASes[resolverAS].Country)
	if resolverFar && (o.Kind == netmodel.OrgCDNDeploy || o.Kind == netmodel.OrgSearch) {
		for i := range servers {
			if servers[i].Deploy == netmodel.DeployFarRegion {
				return servers[i].IP, true
			}
		}
	}
	// Best visible server (highest weight).
	best := -1
	for i := range servers {
		if servers[i].Deploy != netmodel.DeployNormal {
			continue
		}
		if best == -1 || servers[i].Weight > servers[best].Weight {
			best = i
		}
	}
	if best == -1 {
		best = 0
	}
	return servers[best].IP, true
}

// ResolveVaried is Resolve with answer rotation: authorities load-
// balance across their fleets, so repeated queries (distinguished by
// salt) see different servers of the serving organization. Private
// clusters still shadow everything for in-AS resolvers.
func (d *DB) ResolveVaried(domain string, resolverAS int32, salt uint64) (packet.IPv4Addr, bool) {
	if ip, hasCatchAll := d.catchAll[resolverAS]; hasCatchAll {
		if randutil.HashUnit(uint64(d.w.Cfg.Seed), 0xbad, uint64(resolverAS), salt, randutil.Hash64(uint64(len(domain)), uint64(domain[0]))) < 0.03 {
			return ip, true
		}
	}
	si, ok := d.siteByDomain[domain]
	if !ok {
		return 0, false
	}
	site := &d.sites[si]
	w := d.w
	serving := site.DeliveringOrg()
	servers := w.OrgServers(serving)
	if len(servers) == 0 {
		return 0, false
	}
	for i := range servers {
		if servers[i].Deploy == netmodel.DeployPrivateCluster && servers[i].AS == resolverAS {
			return servers[i].IP, true
		}
	}
	o := &w.Orgs[serving]
	if w.ASes[resolverAS].Distance >= 2 && !isNearCountry(w.ASes[resolverAS].Country) &&
		(o.Kind == netmodel.OrgCDNDeploy || o.Kind == netmodel.OrgSearch) {
		// Region-aware platforms answer far resolvers from far fleets,
		// rotating like everywhere else.
		var far []int
		for i := range servers {
			if servers[i].Deploy == netmodel.DeployFarRegion {
				far = append(far, i)
			}
		}
		if len(far) > 0 {
			h := randutil.Hash64(uint64(w.Cfg.Seed), 0xfa2, uint64(si), salt)
			return servers[far[int(h%uint64(len(far)))]].IP, true
		}
	}
	// Weight-proportional rotation over the visible fleet.
	var total float64
	for i := range servers {
		if servers[i].Deploy == netmodel.DeployNormal {
			total += float64(servers[i].Weight)
		}
	}
	if total == 0 {
		return d.Resolve(domain, resolverAS)
	}
	u := randutil.HashUnit(uint64(w.Cfg.Seed), 0x5a17, uint64(si), salt) * total
	for i := range servers {
		if servers[i].Deploy != netmodel.DeployNormal {
			continue
		}
		u -= float64(servers[i].Weight)
		if u <= 0 {
			return servers[i].IP, true
		}
	}
	return d.Resolve(domain, resolverAS)
}

func isNearCountry(c string) bool {
	switch c {
	case "DE", "FR", "GB", "NL", "IT", "ES", "PL", "CZ", "AT", "CH", "SE",
		"DK", "NO", "FI", "BE", "PT", "GR", "HU", "RO", "IE", "EU", "UA", "TR", "RU":
		return true
	}
	return false
}

// SOAs returns every domain the SOA chain resolves, mapped to its
// authority root: the zone data an inputs file records. The map is the
// DB's own and must not be modified.
func (d *DB) SOAs() map[string]string { return d.soa }
