// Package cluster implements the three-step organization clustering of
// Section 5.1: server IPs are grouped so that the servers of one cluster
// are under the administrative control of one organization.
//
//  1. Servers whose evidence is unanimous, or whose hostname SOA is
//     corroborated by at least one URI/certificate authority ("the SOA
//     of the hostname and the authority of the URI lead to the same
//     entry"), are clustered under that entry — the
//     Amazon/Akamai/Google case, 78.7% in the paper.
//  2. Servers with mixed evidence across multiple sources (hostname
//     plus URIs/certificates) are assigned by a majority vote among the
//     SOA entries, weighted by (i) the number of IPs and (ii) the size
//     of the network footprint — the outsourced-SOA, hoster and
//     virtual-server case, 17.4%.
//  3. Servers with only partial, internally ambiguous information (a
//     single evidence source, typically URI-only CDN servers deployed
//     deep inside ISPs) are assigned with the same heuristic on the
//     available subset — 3.9%.
//
// A pre-step mirrors the paper's cleaning pragmatics: authorities that
// hold zones for very many unrelated registrable domains while naming
// almost no servers themselves (third-party DNS providers, meta-hosters)
// are detected as "shared"; evidence under a shared authority falls back
// to the registrable domain so provider customers do not collapse into
// one giant pseudo-organization.
package cluster

import (
	"sort"

	"ixplens/internal/core/metadata"
	"ixplens/internal/entity"
	"ixplens/internal/packet"
)

// Step identifies which rule clustered a server.
type Step uint8

// Steps.
const (
	Step1 Step = iota + 1
	Step2
	Step3
	Unclustered
)

// String names the step.
func (s Step) String() string {
	switch s {
	case Step1:
		return "step1"
	case Step2:
		return "step2"
	case Step3:
		return "step3"
	default:
		return "unclustered"
	}
}

// Options tune the clusterer.
type Options struct {
	// SharedDomainSpread is the number of distinct registrable domains
	// above which an authority becomes a shared-authority candidate.
	SharedDomainSpread int
	// SharedSpreadRatio is how many times the domain spread must exceed
	// the authority's own named-server count to be considered shared.
	SharedSpreadRatio float64
	// KnownShared lists authorities known a priori to be shared
	// infrastructure (third-party DNS providers, RIR zones); the paper
	// cleans such entries using public knowledge.
	KnownShared []string
	// ASNOf optionally resolves server IPs to origin ASNs; when set,
	// majority votes use network footprints as a late tie-breaker, as
	// the paper describes.
	ASNOf func(packet.IPv4Addr) (uint32, bool)
	// Entities, when set, supersedes ASNOf with the shared interning
	// layer: AS resolution becomes a memoized table read instead of a
	// trie walk per IP, and authority names intern through
	// Entities.Names so the vote bookkeeping is keyed by dense IDs.
	Entities *entity.Table
}

// DefaultOptions returns the thresholds used throughout the study.
func DefaultOptions() Options {
	return Options{SharedDomainSpread: 30, SharedSpreadRatio: 8}
}

// Cluster is one inferred organization.
type Cluster struct {
	// Authority is the common root identifying the organization.
	Authority string
	// IPs are the member server IPs.
	IPs []packet.IPv4Addr
	// Bytes is the summed server traffic.
	Bytes uint64
	// ASNs is the cluster's network footprint (empty without ASNOf).
	ASNs map[uint32]int
}

// Assignment records how one server was clustered.
type Assignment struct {
	Authority string
	Step      Step
}

// Result is the clustering outcome.
type Result struct {
	ByServer map[packet.IPv4Addr]Assignment
	Clusters map[string]*Cluster
	// StepIPs counts servers per step (index by Step).
	StepIPs map[Step]int
	// SharedAuthorities lists detected shared (provider) authorities.
	SharedAuthorities map[string]bool
}

// ClusteredShare returns the fraction of evidence-bearing servers that
// step s captured.
func (r *Result) ClusteredShare(s Step) float64 {
	total := r.StepIPs[Step1] + r.StepIPs[Step2] + r.StepIPs[Step3]
	if total == 0 {
		return 0
	}
	return float64(r.StepIPs[s]) / float64(total)
}

// asnResolver composes the AS lookup the vote and footprint bookkeeping
// use: the entity table's memoized attributes when available, the plain
// ASNOf callback otherwise, nil when neither is set.
func (opts *Options) asnResolver() func(packet.IPv4Addr) (uint32, bool) {
	if opts.Entities != nil {
		tab := opts.Entities
		return func(ip packet.IPv4Addr) (uint32, bool) {
			_, a := tab.ResolveAttrs(ip)
			return a.ASN, a.ASN != 0
		}
	}
	return opts.ASNOf
}

// Run executes the clustering over cleaned meta-data. Authority names
// are interned to dense IDs for the duration of the run (through
// Options.Entities.Names when set), so the per-server evidence counts,
// the unanimous-cluster sizes and the vote all operate on uint32 keys
// and slice indices; the Result is keyed by the authority strings as
// before.
func Run(metas []metadata.ServerMeta, opts Options) *Result {
	names := entity.NewStrings()
	if opts.Entities != nil {
		names = opts.Entities.Names
	}
	asnOf := opts.asnResolver()

	res := &Result{
		ByServer:          make(map[packet.IPv4Addr]Assignment, len(metas)),
		Clusters:          make(map[string]*Cluster),
		StepIPs:           make(map[Step]int),
		SharedAuthorities: detectShared(metas, opts, names),
	}
	sharedIDs := make(map[uint32]bool, len(res.SharedAuthorities))
	for a := range res.SharedAuthorities {
		sharedIDs[names.Intern(a)] = true
	}

	// Evidence per server, with shared-authority substitution applied.
	// Authorities are dense name IDs throughout.
	type serverEvidence struct {
		meta    *metadata.ServerMeta
		counts  map[uint32]int // authority ID -> occurrences for this server
		sources int            // distinct evidence sources contributing
		ordered []uint32       // authority IDs, lexicographic by value
		// hostAuth is the hostname-derived authority (hasHost guards it).
		hostAuth uint32
		hasHost  bool
		// hostConfirmed is set when a URI or certificate authority
		// agrees with hostAuth.
		hostConfirmed bool
	}
	evs := make([]serverEvidence, 0, len(metas))
	// step1Size counts, per candidate authority ID, the IPs whose
	// evidence is unanimous — the basis of the majority vote. Slice
	// indexed by name ID, grown on demand.
	var step1Size []int
	var step1Footprint []map[uint32]bool
	sizeOf := func(a uint32) int {
		if int(a) < len(step1Size) {
			return step1Size[a]
		}
		return 0
	}
	footprintOf := func(a uint32) int {
		if int(a) < len(step1Footprint) {
			return len(step1Footprint[a])
		}
		return 0
	}

	addCount := func(m map[uint32]int, ev metadata.Evidence) uint32 {
		a := names.Intern(ev.Authority)
		if sharedIDs[a] {
			a = names.Intern(ev.Domain)
		}
		m[a]++
		return a
	}

	for i := range metas {
		m := &metas[i]
		if !m.HasAny() {
			res.ByServer[m.IP] = Assignment{Step: Unclustered}
			res.StepIPs[Unclustered]++
			continue
		}
		se := serverEvidence{meta: m, counts: make(map[uint32]int, 4)}
		if m.HasDNS() {
			se.sources++
			se.hostAuth = addCount(se.counts, m.HostnameEv)
			se.hasHost = true
		}
		if m.HasURI() {
			se.sources++
		}
		if m.HasCert() {
			se.sources++
		}
		for _, ev := range m.URIEv {
			a := addCount(se.counts, ev)
			if se.hasHost && a == se.hostAuth {
				se.hostConfirmed = true
			}
		}
		for _, ev := range m.CertEv {
			a := addCount(se.counts, ev)
			if se.hasHost && a == se.hostAuth {
				se.hostConfirmed = true
			}
		}
		for a := range se.counts {
			se.ordered = append(se.ordered, a)
		}
		sort.Slice(se.ordered, func(i, j int) bool {
			return names.Value(se.ordered[i]) < names.Value(se.ordered[j])
		})
		evs = append(evs, se)
		if len(se.counts) == 1 || se.hostConfirmed {
			a := se.ordered[0]
			if se.hostConfirmed {
				a = se.hostAuth
			}
			for int(a) >= len(step1Size) {
				step1Size = append(step1Size, 0)
			}
			step1Size[a]++
			if asnOf != nil {
				if asn, ok := asnOf(m.IP); ok {
					for int(a) >= len(step1Footprint) {
						step1Footprint = append(step1Footprint, nil)
					}
					if step1Footprint[a] == nil {
						step1Footprint[a] = make(map[uint32]bool)
					}
					step1Footprint[a][asn] = true
				}
			}
		}
	}

	assign := func(m *metadata.ServerMeta, authID uint32, step Step) {
		authority := names.Value(authID)
		res.ByServer[m.IP] = Assignment{Authority: authority, Step: step}
		res.StepIPs[step]++
		c := res.Clusters[authority]
		if c == nil {
			c = &Cluster{Authority: authority}
			res.Clusters[authority] = c
		}
		c.IPs = append(c.IPs, m.IP)
		c.Bytes += m.Bytes
		if asnOf != nil {
			if asn, ok := asnOf(m.IP); ok {
				if c.ASNs == nil {
					c.ASNs = make(map[uint32]int)
				}
				c.ASNs[asn]++
			}
		}
	}

	for i := range evs {
		se := &evs[i]
		switch {
		case len(se.counts) == 1:
			// All evidence leads to one and the same entry.
			assign(se.meta, se.ordered[0], Step1)
		case se.hostConfirmed:
			// The hostname SOA and a URI/certificate authority lead to
			// the same entry: IP and content provably under the same
			// administrative control, stray foreign URIs (a CDN serving
			// customer domains) notwithstanding.
			assign(se.meta, se.hostAuth, Step1)
		case se.sources >= 2:
			// Full but conflicting information: majority vote.
			assign(se.meta, vote(se.ordered, se.counts, sizeOf, footprintOf), Step2)
		default:
			// Partial (single-source) ambiguous information.
			assign(se.meta, vote(se.ordered, se.counts, sizeOf, footprintOf), Step3)
		}
	}
	return res
}

// vote picks the winning authority: per-server occurrence count first,
// then global unanimous-cluster size, then network footprint, then
// lexicographic order for determinism (ordered is sorted by authority
// string, and ties keep the earlier entry).
func vote(ordered []uint32, counts map[uint32]int, sizeOf, footprintOf func(uint32) int) uint32 {
	best := ordered[0]
	for _, a := range ordered[1:] {
		switch {
		case counts[a] != counts[best]:
			if counts[a] > counts[best] {
				best = a
			}
		case sizeOf(a) != sizeOf(best):
			if sizeOf(a) > sizeOf(best) {
				best = a
			}
		case footprintOf(a) != footprintOf(best):
			if footprintOf(a) > footprintOf(best) {
				best = a
			}
		}
	}
	return best
}

// detectShared finds authorities whose zone spread marks them as
// third-party DNS operators or meta-hosters: many unrelated registrable
// domains lead to them, while almost no server hostname does. The scan
// interns authority and domain names so the spread bookkeeping is
// ID-keyed; the returned set is string-keyed for the public Result.
func detectShared(metas []metadata.ServerMeta, opts Options, names *entity.Strings) map[string]bool {
	domains := make(map[uint32]map[uint32]bool)
	hostnameIPs := make(map[uint32]int)
	record := func(ev metadata.Evidence) uint32 {
		auth := names.Intern(ev.Authority)
		ds := domains[auth]
		if ds == nil {
			ds = make(map[uint32]bool)
			domains[auth] = ds
		}
		ds[names.Intern(ev.Domain)] = true
		return auth
	}
	for i := range metas {
		m := &metas[i]
		if m.HasDNS() {
			hostnameIPs[record(m.HostnameEv)]++
		}
		for _, ev := range m.URIEv {
			record(ev)
		}
		for _, ev := range m.CertEv {
			record(ev)
		}
	}
	shared := make(map[string]bool, len(opts.KnownShared))
	for _, k := range opts.KnownShared {
		shared[k] = true
	}
	for auth, ds := range domains {
		spread := len(ds)
		if spread < opts.SharedDomainSpread {
			continue
		}
		if float64(spread) >= opts.SharedSpreadRatio*float64(hostnameIPs[auth]+1) {
			shared[names.Value(auth)] = true
		}
	}
	return shared
}

// SizeDistribution returns, for thresholds ts (ascending), how many
// clusters have at least that many IPs — Fig. 6(b)'s marginal counts
// (the paper: 143 organizations above 1000 IPs, 6K+ above 10).
func (r *Result) SizeDistribution(ts []int) map[int]int {
	out := make(map[int]int, len(ts))
	for _, c := range r.Clusters {
		for _, t := range ts {
			if len(c.IPs) >= t {
				out[t]++
			}
		}
	}
	return out
}
