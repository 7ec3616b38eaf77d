// Package blindspot implements the Section 3.3 analyses of what the IXP
// vantage point cannot see and how IXP-external measurements bound it:
// the Alexa-list recovery rates of URIs harvested at the IXP, the
// resolver-based active discovery of additional server IPs, the
// four-way classification of servers invisible at the IXP, and the
// per-organization case study (Akamai's 28K-visible vs ~100K ground
// truth). The classification and the case study read the world's
// ground truth, so they live in package oracle; this package holds
// only what the analysis itself computes.
package blindspot

import (
	"ixplens/internal/alexa"
	"ixplens/internal/core/webserver"
	"ixplens/internal/dnssim"
	"ixplens/internal/packet"
	"ixplens/internal/randutil"
)

// ObservedDomains extracts the registrable domains recovered from the
// Host headers seen at the IXP.
func ObservedDomains(res *webserver.Result) map[string]bool {
	out := make(map[string]bool)
	for _, srv := range res.Servers {
		for _, h := range srv.Hosts {
			out[dnssim.RegistrableDomain(h)] = true
		}
	}
	return out
}

// RecoveryRates computes the top-N recovery fractions (the paper: 20%
// of the top-1M, 63% of the top-10K, 80% of the top-1K).
func RecoveryRates(list *alexa.List, observed map[string]bool, tops []int) map[int]float64 {
	out := make(map[int]float64, len(tops))
	for _, n := range tops {
		out[n] = list.Recovery(observed, n)
	}
	return out
}

// Discovery is the outcome of the resolver-based active measurement.
type Discovery struct {
	// QueriedDomains is how many uncovered domains were queried.
	QueriedDomains int
	// Discovered is the set of server IPs the queries returned.
	Discovered map[packet.IPv4Addr]bool
	// AlreadyAtIXP is the overlap with the IXP-identified server set.
	AlreadyAtIXP int
}

// Discover runs active DNS queries for the domains not recovered at the
// IXP: each domain is resolved through resolversPerDomain randomly
// chosen open resolvers (the paper uses 100 per URI from its 25K pool).
func Discover(dns *dnssim.DB, domains []string, resolversPerDomain int, ixpServers map[packet.IPv4Addr]bool, seed int64) Discovery {
	resolvers := dns.Resolvers()
	d := Discovery{Discovered: make(map[packet.IPv4Addr]bool)}
	if len(resolvers) == 0 {
		return d
	}
	for di, domain := range domains {
		d.QueriedDomains++
		for k := 0; k < resolversPerDomain; k++ {
			h := randutil.Hash64(uint64(seed), uint64(di), uint64(k))
			r := resolvers[int(h%uint64(len(resolvers)))]
			ip, ok := dns.ResolveVaried(domain, r.AS, h)
			if !ok {
				continue
			}
			d.Discovered[ip] = true
		}
	}
	for ip := range d.Discovered {
		if ixpServers[ip] {
			d.AlreadyAtIXP++
		}
	}
	return d
}
