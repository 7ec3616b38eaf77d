// Package visibility computes the Section 3 analyses: the IXP's view of
// the Internet as a whole (Table 1), the top contributors by country and
// network (Table 2), the local-vs-global breakdown over the distance
// classes A(L)/A(M)/A(G) (Table 3), the per-server-IP traffic
// concentration curve (Fig. 2) and the per-country IP shares (Fig. 3).
package visibility

import (
	"slices"
	"sort"

	"ixplens/internal/core/dissect"
	"ixplens/internal/core/webserver"
	"ixplens/internal/entity"
	"ixplens/internal/geo"
	"ixplens/internal/packet"
	"ixplens/internal/routing"
)

// Aggregator accumulates per-IP activity over one week of peering
// traffic and derives the visibility views. IPs intern to dense entity
// IDs on first sight, so the per-IP byte accumulator is a slice indexed
// by ID and every RIB/geo resolution is a memoized table read.
type Aggregator struct {
	table *entity.Table
	// bytes is indexed by entity ID; seen marks the IDs this aggregator
	// observed (the table may be shared across weeks and hold more IPs
	// than this week saw). order lists the observed IDs for iteration.
	bytes []uint64
	seen  []bool
	order []entity.ID
}

// NewAggregator builds an aggregator against a RIB and geo database,
// with a private interning table.
func NewAggregator(rib *routing.Table, gdb *geo.DB) *Aggregator {
	return NewAggregatorWith(entity.NewTable(rib, gdb))
}

// NewAggregatorWith builds an aggregator sharing an existing entity
// table, so IPs already interned by other pipeline stages resolve for
// free. Its accumulators start at the table's size, so a table shared
// across weeks does not make every week regrow them.
func NewAggregatorWith(table *entity.Table) *Aggregator {
	n := table.Len()
	return &Aggregator{table: table, bytes: make([]uint64, n), seen: make([]bool, n)}
}

// Observe feeds one dissected record; only peering traffic counts. Each
// endpoint is credited with the record's bytes; a self-addressed record
// (SrcIP == DstIP) credits that IP once, not twice.
func (a *Aggregator) Observe(rec *dissect.Record) {
	if !rec.Class.IsPeering() {
		return
	}
	src, dst := a.table.ResolvePair(rec.SrcIP, rec.DstIP)
	a.ObserveIDs(src, dst, rec.Bytes)
}

// ObserveIDs credits one peering record whose endpoints the caller has
// already resolved through the aggregator's table, so a driver that
// resolves each record once can feed every consumer the same IDs. The
// IDs are equal exactly when the record is self-addressed, which then
// credits its one IP once.
func (a *Aggregator) ObserveIDs(src, dst entity.ID, bytes uint64) {
	a.creditID(src, bytes)
	if dst != src {
		a.creditID(dst, bytes)
	}
}

// Add credits ip with bytes directly — the hook that replays a
// persisted per-IP product (analysis.VisibilityProduct) into a fresh
// aggregator. Every derived view is iteration-order-independent, so an
// aggregator rebuilt from IP-sorted entries answers identically to the
// one that observed the live record stream.
func (a *Aggregator) Add(ip packet.IPv4Addr, bytes uint64) { a.creditID(a.table.Resolve(ip), bytes) }

// Merge folds another aggregator built over the SAME entity table into
// this one — the deterministic shard merge of the fused analysis pass.
// Shard-local entity IDs are comparable because the table is shared.
func (a *Aggregator) Merge(o *Aggregator) {
	if o == nil {
		return
	}
	for _, id := range o.order {
		a.creditID(id, o.bytes[id])
	}
}

// IPTraffic is one observed endpoint with its accumulated bytes.
type IPTraffic struct {
	IP    packet.IPv4Addr
	Bytes uint64
}

// PerIP extracts the raw accumulation, sorted by IP — the persistable,
// partition-independent form of everything this aggregator knows.
func (a *Aggregator) PerIP() []IPTraffic {
	out, _ := a.PerIPIDs()
	return out
}

// PerIPIDs is PerIP with each entry's entity ID alongside, for callers
// that go on to read the table's memo by ID.
func (a *Aggregator) PerIPIDs() ([]IPTraffic, []entity.ID) {
	// An IP and its ID are one-to-one, so ordering (IP, ID) pairs packed
	// into one word orders the IPs.
	keys := make([]uint64, len(a.order))
	for i, id := range a.order {
		keys[i] = uint64(a.table.IP(id))<<32 | uint64(id)
	}
	slices.Sort(keys)
	out := make([]IPTraffic, len(keys))
	ids := make([]entity.ID, len(keys))
	for i, k := range keys {
		ids[i] = entity.ID(uint32(k))
		out[i] = IPTraffic{IP: packet.IPv4Addr(k >> 32), Bytes: a.bytes[ids[i]]}
	}
	return out, ids
}

func (a *Aggregator) creditID(id entity.ID, bytes uint64) {
	if int(id) >= len(a.bytes) {
		grown := make([]uint64, int(id)+1+len(a.bytes)/2)
		copy(grown, a.bytes)
		a.bytes = grown
		seen := make([]bool, len(grown))
		copy(seen, a.seen)
		a.seen = seen
	}
	if !a.seen[id] {
		a.seen[id] = true
		a.order = append(a.order, id)
	}
	a.bytes[id] += bytes
}

// Summary is one side of Table 1 (either all peering traffic or the
// server-related subset).
type Summary struct {
	IPs       int
	ASes      int
	Prefixes  int
	Countries int
	Bytes     uint64
}

// Summarize computes Table 1's row set over a subset of the observed
// IPs: pass nil to use all peering IPs, or a filter for the server set.
// Distinct-AS/prefix/country counting is bool slices over the table's
// dense index spaces, not hash sets.
func (a *Aggregator) Summarize(filter func(packet.IPv4Addr) bool) Summary {
	var s Summary
	attrs := a.table.AttrsView()
	ases := make([]bool, a.table.NumAS())
	prefixes := make([]bool, a.table.NumPrefixes())
	countries := make([]bool, a.table.Countries.Len())
	for _, id := range a.order {
		if filter != nil && !filter(a.table.IP(id)) {
			continue
		}
		s.IPs++
		s.Bytes += a.bytes[id]
		at := &attrs[id]
		if at.PrefixID != entity.NoPrefix {
			if !ases[at.ASIdx] {
				ases[at.ASIdx] = true
				s.ASes++
			}
			if !prefixes[at.PrefixID] {
				prefixes[at.PrefixID] = true
				s.Prefixes++
			}
			if at.CountryID != 0 && !countries[at.CountryID] {
				countries[at.CountryID] = true
				s.Countries++
			}
		}
	}
	return s
}

// Share pairs a key with its share of a total.
type Share struct {
	Key   string
	Count int
	Bytes uint64
}

// byCountry aggregates IP counts and traffic per country ID.
func (a *Aggregator) byCountry(filter func(packet.IPv4Addr) bool) map[uint32]*Share {
	out := make(map[uint32]*Share)
	attrs := a.table.AttrsView()
	for _, id := range a.order {
		if filter != nil && !filter(a.table.IP(id)) {
			continue
		}
		at := &attrs[id]
		if at.PrefixID == entity.NoPrefix || at.CountryID == 0 {
			continue
		}
		sh := out[at.CountryID]
		if sh == nil {
			sh = &Share{Key: a.table.Countries.Value(at.CountryID)}
			out[at.CountryID] = sh
		}
		sh.Count++
		sh.Bytes += a.bytes[id]
	}
	return out
}

// byASN aggregates IP counts and traffic per origin AS.
func (a *Aggregator) byASN(filter func(packet.IPv4Addr) bool) map[uint32]*Share {
	out := make(map[uint32]*Share)
	attrs := a.table.AttrsView()
	for _, id := range a.order {
		if filter != nil && !filter(a.table.IP(id)) {
			continue
		}
		at := &attrs[id]
		if at.PrefixID == entity.NoPrefix {
			continue
		}
		sh := out[at.ASN]
		if sh == nil {
			sh = &Share{}
			out[at.ASN] = sh
		}
		sh.Count++
		sh.Bytes += a.bytes[id]
	}
	return out
}

// TopCountries returns Table 2's country columns: the top n countries by
// IP count and by traffic.
func (a *Aggregator) TopCountries(n int, filter func(packet.IPv4Addr) bool) (byIPs, byBytes []Share) {
	m := a.byCountry(filter)
	all := make([]Share, 0, len(m))
	for _, sh := range m {
		all = append(all, *sh)
	}
	byIPs = topBy(all, n, func(s *Share) uint64 { return uint64(s.Count) })
	byBytes = topBy(all, n, func(s *Share) uint64 { return s.Bytes })
	return
}

// TopASNs returns Table 2's network columns (keys are decimal ASNs
// rendered by the caller through its AS naming).
func (a *Aggregator) TopASNs(n int, filter func(packet.IPv4Addr) bool) (byIPs, byBytes []ASNShare) {
	m := a.byASN(filter)
	all := make([]ASNShare, 0, len(m))
	for asn, sh := range m {
		all = append(all, ASNShare{ASN: asn, Count: sh.Count, Bytes: sh.Bytes})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].ASN < all[j].ASN
	})
	byIPs = append(byIPs, all[:minInt(n, len(all))]...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Bytes != all[j].Bytes {
			return all[i].Bytes > all[j].Bytes
		}
		return all[i].ASN < all[j].ASN
	})
	byBytes = append(byBytes, all[:minInt(n, len(all))]...)
	return
}

// ASNShare is a per-AS contribution row.
type ASNShare struct {
	ASN   uint32
	Count int
	Bytes uint64
}

func topBy(all []Share, n int, key func(*Share) uint64) []Share {
	sorted := make([]Share, len(all))
	copy(sorted, all)
	sort.Slice(sorted, func(i, j int) bool {
		ki, kj := key(&sorted[i]), key(&sorted[j])
		if ki != kj {
			return ki > kj
		}
		return sorted[i].Key < sorted[j].Key
	})
	if n < len(sorted) {
		sorted = sorted[:n]
	}
	return sorted
}

// CountryShares returns Fig. 3's series: every country's percentage of
// the observed IPs, descending.
func (a *Aggregator) CountryShares(filter func(packet.IPv4Addr) bool) []Share {
	m := a.byCountry(filter)
	out := make([]Share, 0, len(m))
	for _, sh := range m {
		out = append(out, *sh)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// ClassBreakdown is one row group of Table 3.
type ClassBreakdown struct {
	IPs      [3]float64 // shares per A(L), A(M), A(G)
	Prefixes [3]float64
	ASes     [3]float64
	Traffic  [3]float64
}

// LocalGlobal computes Table 3 for a subset of the observed IPs given
// the AS distance classes.
func (a *Aggregator) LocalGlobal(classes map[uint32]routing.DistanceClass, filter func(packet.IPv4Addr) bool) ClassBreakdown {
	var out ClassBreakdown
	var ipTot, trafTot float64
	attrs := a.table.AttrsView()
	// Dense per-AS/per-prefix class memos: 0 = unseen, class+1 otherwise.
	asSeen := make([]uint8, a.table.NumAS())
	pfxSeen := make([]uint8, a.table.NumPrefixes())
	var nAS, nPfx float64
	for _, id := range a.order {
		if filter != nil && !filter(a.table.IP(id)) {
			continue
		}
		at := &attrs[id]
		if at.PrefixID == entity.NoPrefix {
			continue
		}
		cls, known := classes[at.ASN]
		if !known {
			cls = routing.ClassGlobal
		}
		out.IPs[cls]++
		ipTot++
		out.Traffic[cls] += float64(a.bytes[id])
		trafTot += float64(a.bytes[id])
		if asSeen[at.ASIdx] == 0 {
			asSeen[at.ASIdx] = uint8(cls) + 1
			out.ASes[cls]++
			nAS++
		}
		if pfxSeen[at.PrefixID] == 0 {
			pfxSeen[at.PrefixID] = uint8(cls) + 1
			out.Prefixes[cls]++
			nPfx++
		}
	}
	normalize(&out.IPs, ipTot)
	normalize(&out.Traffic, trafTot)
	normalize(&out.ASes, nAS)
	normalize(&out.Prefixes, nPfx)
	return out
}

func normalize(v *[3]float64, total float64) {
	if total == 0 {
		return
	}
	for i := range v {
		v[i] /= total
	}
}

// RankCurve returns Fig. 2's series for the identified servers: the
// traffic share of each server IP, sorted descending.
func RankCurve(res *webserver.Result) []float64 {
	shares := make([]float64, 0, len(res.Servers))
	var total float64
	for _, s := range res.Servers {
		shares = append(shares, float64(s.Bytes))
		total += float64(s.Bytes)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
	if total > 0 {
		for i := range shares {
			shares[i] /= total
		}
	}
	return shares
}

// TopShare sums the first n entries of a rank curve (the paper: the top
// 34 server IPs carry more than 6% of the server traffic).
func TopShare(curve []float64, n int) float64 {
	if n > len(curve) {
		n = len(curve)
	}
	sum := 0.0
	for _, v := range curve[:n] {
		sum += v
	}
	return sum
}

// NumObservedIPs returns how many distinct endpoint IPs were seen.
func (a *Aggregator) NumObservedIPs() int { return len(a.order) }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
