// Package entity is the per-run interning layer of the analysis stages.
// The study's aggregations — visibility shares, churn pools, clustering
// footprints, heterogenization matrices — are all keyed by the same few
// entity kinds (IP, prefix, AS, country, region, organization), yet each
// layer used to key them independently with address- or string-keyed
// maps and to re-resolve every IP through the RIB trie and geo DB per
// layer and per sample. A Table instead maps each IP to a dense uint32
// ID exactly once, memoizing the resolved attributes (origin AS, matched
// prefix, country, region) alongside it, so downstream accumulators can
// be plain slices indexed by ID and the trie/geo lookups happen once per
// distinct address per run, not once per (layer, sample).
//
// A table belongs to one analysis run (one week): weeks share no
// mutable state, and whatever joins them — the churn series — joins by
// IP through each week's own attributes, never by table ID.
//
// ID spaces: IP IDs, prefix IDs, AS indices and string IDs are each
// dense and allocated in first-interned order. They are process-local
// bookkeeping handles — results are always keyed back to addresses,
// ASNs and strings on the way out — so the assignment order never leaks
// into analysis output, which keeps concurrent interning (where IDs
// depend on goroutine timing) observationally deterministic.
//
// A Table is safe for concurrent use once constructed; the underlying
// routing.Table and geo.DB must already be built (both are read-only
// afterwards).
package entity

import (
	"sync"

	"ixplens/internal/geo"
	"ixplens/internal/obs"
	"ixplens/internal/packet"
	"ixplens/internal/routing"
)

// ID is a dense per-Table IP identifier. IDs start at 0 and are
// allocated in first-resolved order.
type ID uint32

// NoPrefix and NoAS are the reserved "resolution failed" slots of the
// prefix-ID and AS-index spaces; real IDs start at 1.
const (
	NoPrefix uint32 = 0
	NoAS     uint32 = 0
)

// Attrs are the memoized per-IP attributes, resolved once through the
// RIB and geo substrates when the IP is first interned.
type Attrs struct {
	// ASN is the origin AS announcing the IP's longest-match prefix, 0
	// if the RIB does not cover the address.
	ASN uint32
	// ASIdx is the dense index of ASN in the Table's AS space (NoAS when
	// ASN is 0). Slice-indexed AS accumulators use this.
	ASIdx uint32
	// PrefixID is the dense index of the matched prefix (NoPrefix when
	// unrouted).
	PrefixID uint32
	// Prefix is the longest-match RIB prefix itself (zero when unrouted).
	Prefix routing.Prefix
	// CountryID interns the geo DB's country code in the Table's
	// Countries interner; the empty string (ID of "") when uncovered.
	CountryID uint32
	// RegionID interns the paper's region bucket (DE/US/RU/CN/RoW) for
	// the country, in the same Countries interner.
	RegionID uint32
}

// Metrics is the interning observability bundle: how often Resolve was
// answered from the memo versus having to run the substrates. A nil
// *Metrics disables instrumentation.
type Metrics struct {
	Hits   *obs.Counter
	Misses *obs.Counter
	// IPs tracks the table size (distinct interned addresses).
	IPs *obs.Gauge
}

// NewMetrics resolves the entity metrics in r (nil registry yields nil).
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Hits:   r.Counter("entity_intern_hits_total"),
		Misses: r.Counter("entity_intern_misses_total"),
		IPs:    r.Gauge("entity_table_ips"),
	}
}

// Table interns IPs to dense IDs with memoized attributes. The zero
// value is not usable; construct with NewTable.
type Table struct {
	rib *routing.Table
	gdb *geo.DB

	// Countries interns country and region codes; Names is a second,
	// independent interner for certificate authorities and organization
	// names, shared so every layer agrees on string IDs.
	Countries *Strings
	Names     *Strings

	mu       sync.RWMutex
	ids      map[packet.IPv4Addr]ID
	attrs    []Attrs
	ips      []packet.IPv4Addr
	prefixes []routing.Prefix // indexed by PrefixID; slot 0 reserved
	pfxIDs   map[routing.Prefix]uint32
	asns     []uint32 // indexed by ASIdx; slot 0 reserved
	asIdx    map[uint32]uint32

	// geoIDs holds the Countries IDs of every country the geo DB can
	// answer (and of ""), with its region's: interned when the table is
	// built and read-only afterwards, so a miss takes no interner lock.
	geoIDs map[string]countryIDs

	m *Metrics
}

// NewTable builds an empty table over the given substrates. Either may
// be nil, in which case the corresponding attributes resolve to their
// zero ("unknown") values — useful for tests that only need identity
// interning.
func NewTable(rib *routing.Table, gdb *geo.DB) *Table {
	t := &Table{
		rib:       rib,
		gdb:       gdb,
		Countries: NewStrings(),
		Names:     NewStrings(),
		ids:       make(map[packet.IPv4Addr]ID, 1<<12),
		prefixes:  make([]routing.Prefix, 1),
		pfxIDs:    make(map[routing.Prefix]uint32),
		asns:      make([]uint32, 1),
		asIdx:     make(map[uint32]uint32),
	}
	// Country ID 0 is the empty (geo-uncovered) code by construction.
	countries := []string{""}
	if gdb != nil {
		countries = append(countries, gdb.Countries()...)
	}
	t.geoIDs = make(map[string]countryIDs, len(countries))
	for _, c := range countries {
		t.geoIDs[c] = countryIDs{t.Countries.Intern(c), t.Countries.Intern(geo.Region(c))}
	}
	return t
}

// countryIDs are a country's and its region's IDs in Table.Countries.
type countryIDs struct{ country, region uint32 }

// SetMetrics attaches an observability bundle (nil detaches). Not
// synchronized with concurrent Resolve calls; attach before sharing.
func (t *Table) SetMetrics(m *Metrics) {
	t.m = m
	if m != nil {
		m.IPs.Set(int64(t.Len()))
	}
}

// Resolve interns ip, resolving its attributes through the RIB and geo
// DB on first sight, and returns its dense ID. A hit reads only the ID
// map: the attribute memo is not touched.
func (t *Table) Resolve(ip packet.IPv4Addr) ID {
	t.mu.RLock()
	id, ok := t.ids[ip]
	t.mu.RUnlock()
	if !ok {
		id, _ = t.intern(ip)
		return id
	}
	if t.m != nil {
		t.m.Hits.Inc()
	}
	return id
}

// ResolvePair is Resolve for a record's two endpoints under one read
// lock. A self-addressed pair (src == dst) is resolved once; misses
// intern src before dst, as two Resolve calls would.
func (t *Table) ResolvePair(src, dst packet.IPv4Addr) (ID, ID) {
	t.mu.RLock()
	s, okS := t.ids[src]
	d, okD := s, okS
	if dst != src {
		d, okD = t.ids[dst]
	}
	t.mu.RUnlock()
	if t.m != nil {
		if okS {
			t.m.Hits.Inc()
		}
		if okD && dst != src {
			t.m.Hits.Inc()
		}
	}
	if !okS {
		s, _ = t.intern(src)
	}
	if dst == src {
		return s, s
	}
	if !okD {
		d, _ = t.intern(dst)
	}
	return s, d
}

// ResolveAttrs is Resolve plus the memoized attributes, fetched under
// the same lock acquisition.
func (t *Table) ResolveAttrs(ip packet.IPv4Addr) (ID, Attrs) {
	t.mu.RLock()
	id, ok := t.ids[ip]
	if ok {
		a := t.attrs[id]
		t.mu.RUnlock()
		if t.m != nil {
			t.m.Hits.Inc()
		}
		return id, a
	}
	t.mu.RUnlock()
	return t.intern(ip)
}

// intern is the slow path: resolve the substrates outside the write
// lock (both are read-only and safe concurrently), then insert under
// it, double-checking against a racing interner of the same address.
func (t *Table) intern(ip packet.IPv4Addr) (ID, Attrs) {
	var a Attrs
	if t.rib != nil {
		if route, ok := t.rib.Lookup(ip); ok {
			a.ASN = route.ASN
			a.Prefix = route.Prefix
		}
	}
	country := ""
	if t.gdb != nil {
		country = t.gdb.Lookup(ip)
	}
	ids := t.geoIDs[country]
	a.CountryID, a.RegionID = ids.country, ids.region

	t.mu.Lock()
	if id, ok := t.ids[ip]; ok {
		// Lost the race; the winner's attrs are identical by construction.
		a = t.attrs[id]
		t.mu.Unlock()
		if t.m != nil {
			t.m.Hits.Inc()
		}
		return id, a
	}
	if a.ASN != 0 {
		if idx, ok := t.asIdx[a.ASN]; ok {
			a.ASIdx = idx
		} else {
			a.ASIdx = uint32(len(t.asns))
			t.asIdx[a.ASN] = a.ASIdx
			t.asns = append(t.asns, a.ASN)
		}
		if pid, ok := t.pfxIDs[a.Prefix]; ok {
			a.PrefixID = pid
		} else {
			a.PrefixID = uint32(len(t.prefixes))
			t.pfxIDs[a.Prefix] = a.PrefixID
			t.prefixes = append(t.prefixes, a.Prefix)
		}
	}
	id := ID(len(t.attrs))
	t.ids[ip] = id
	t.attrs = append(t.attrs, a)
	t.ips = append(t.ips, ip)
	n := len(t.attrs)
	t.mu.Unlock()
	if t.m != nil {
		t.m.Misses.Inc()
		t.m.IPs.Set(int64(n))
	}
	return id, a
}

// Lookup returns the ID of an already-interned address without
// interning it.
func (t *Table) Lookup(ip packet.IPv4Addr) (ID, bool) {
	t.mu.RLock()
	id, ok := t.ids[ip]
	t.mu.RUnlock()
	return id, ok
}

// Attrs returns the memoized attributes of id.
func (t *Table) Attrs(id ID) Attrs {
	t.mu.RLock()
	a := t.attrs[id]
	t.mu.RUnlock()
	return a
}

// IP returns the address interned as id.
func (t *Table) IP(id ID) packet.IPv4Addr {
	t.mu.RLock()
	ip := t.ips[id]
	t.mu.RUnlock()
	return ip
}

// AttrsView returns a point-in-time view of the attribute memo, indexed
// by ID. The returned slice must not be modified; elements never change
// after interning, so reading it while other goroutines keep interning
// is safe (they may only grow a different backing array).
func (t *Table) AttrsView() []Attrs {
	t.mu.RLock()
	v := t.attrs[:len(t.attrs):len(t.attrs)]
	t.mu.RUnlock()
	return v
}

// Len is the number of distinct interned addresses.
func (t *Table) Len() int {
	t.mu.RLock()
	n := len(t.attrs)
	t.mu.RUnlock()
	return n
}

// NumAS is the size of the dense AS-index space including the reserved
// NoAS slot, i.e. valid ASIdx values are < NumAS().
func (t *Table) NumAS() int {
	t.mu.RLock()
	n := len(t.asns)
	t.mu.RUnlock()
	return n
}

// ASN returns the AS number behind a dense AS index (0 for NoAS).
func (t *Table) ASN(asIdx uint32) uint32 {
	t.mu.RLock()
	asn := t.asns[asIdx]
	t.mu.RUnlock()
	return asn
}

// NumPrefixes is the size of the dense prefix-ID space including the
// reserved NoPrefix slot.
func (t *Table) NumPrefixes() int {
	t.mu.RLock()
	n := len(t.prefixes)
	t.mu.RUnlock()
	return n
}

// Prefix returns the prefix behind a dense prefix ID (zero for
// NoPrefix).
func (t *Table) Prefix(pid uint32) routing.Prefix {
	t.mu.RLock()
	p := t.prefixes[pid]
	t.mu.RUnlock()
	return p
}
