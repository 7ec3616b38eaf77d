package pipeline

import (
	"ixplens/internal/certsim"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/metadata"
	"ixplens/internal/core/webserver"
	"ixplens/internal/dnssim"
	"ixplens/internal/geo"
	"ixplens/internal/ixp"
	"ixplens/internal/netmodel"
	"ixplens/internal/routing"
)

// Inputs is the analysis half of an Env: every dataset the analysis
// consults, as the paper's external data sets — the BGP RIB, the geo
// DB, the IXP's member-port list, the HTTPS crawl, DNS — and nothing
// the traffic generator needs. NewEnv builds it in memory from the
// world (WorldInputs); ixpmine reads it from the campaign's inputs file
// (package inputs), so both run the same analysis code.
type Inputs struct {
	RIB     *routing.Table
	Geo     *geo.DB
	Members dissect.MemberResolver
	// Crawler answers the HTTPS crawl of port-443 candidates.
	Crawler webserver.CertCrawler
	// DNS answers the PTR and SOA queries of meta-data collection.
	DNS metadata.Resolver
	// Roots is the crawl's trusted root store.
	Roots map[string]bool
	// PublicDNS lists the domains of the public DNS providers, which
	// clustering treats as shared infrastructure.
	PublicDNS []string
	// Acme is the AcmeCDN analog, the organization of the deep dive's
	// link attribution (Fig. 7).
	Acme Org
	// Counts sizes the world the campaign was generated from.
	Counts WorldCounts
}

// Org names one organization: its name, its primary domain (the key of
// its cluster) and its home AS index (-1 when it has none).
type Org struct {
	Name   string
	Domain string
	HomeAS int32
}

// WorldCounts are the sizes of a generated world, as Env.String prints
// them.
type WorldCounts struct {
	ASes, Prefixes, Orgs, Servers int
	MembersStart, MembersEnd      int
}

// WorldInputs builds the analysis inputs as views of a generated world:
// its RIB and geo DB, the fabric's member ports, the crawler and DNS
// over the world.
func WorldInputs(w *netmodel.World, dns *dnssim.DB, fabric *ixp.Fabric, crawler *certsim.Crawler) Inputs {
	acme := &w.Orgs[w.Special.AcmeCDN]
	return Inputs{
		RIB:       w.RIB(),
		Geo:       w.GeoDB(),
		Members:   fabric,
		Crawler:   crawler,
		DNS:       dns,
		Roots:     crawler.Roots(),
		PublicDNS: dns.PublicDNSProviders(),
		Acme:      Org{Name: acme.Name, Domain: acme.Domain, HomeAS: acme.HomeAS},
		Counts: WorldCounts{
			ASes: len(w.ASes), Prefixes: len(w.Prefixes), Orgs: len(w.Orgs), Servers: len(w.Servers),
			MembersStart: w.Cfg.MembersStart, MembersEnd: w.Cfg.MembersEnd,
		},
	}
}
