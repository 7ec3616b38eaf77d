package routing

import (
	"sort"

	"ixplens/internal/packet"
)

// Route is one RIB entry: a prefix and its origin AS.
type Route struct {
	Prefix Prefix
	// ASN is the origin AS number announcing the prefix.
	ASN uint32
}

// Table is a routing table over IPv4 prefixes supporting longest-prefix
// match. It is a binary path-uncompressed trie: simple, allocation-light
// on lookup (zero), and fast enough that a full 450K-prefix RIB resolves
// tens of millions of addresses per second. An ablation benchmark
// compares it against a brute-force linear scan.
//
// Table is safe for concurrent readers once built; Insert must not race
// with Lookup.
type Table struct {
	nodes  []trieNode
	routes []Route
	size   int
}

// trieNode is one binary trie node. Children are indices into the node
// arena; 0 means absent (index 0 is the root, which is never a child).
type trieNode struct {
	child [2]uint32
	// route is the RIB entry index + 1 terminating at this node, or 0.
	route uint32
}

// NewTable returns an empty routing table.
func NewTable() *Table {
	return &Table{nodes: make([]trieNode, 1, 1024)}
}

// Size returns the number of routes in the table.
func (t *Table) Size() int { return t.size }

// Insert adds or replaces the route for p. It reports whether a previous
// entry for exactly p was replaced.
func (t *Table) Insert(p Prefix, asn uint32) (replaced bool) {
	p = MakePrefix(p.Addr, p.Len) // normalize stray host bits
	idx := uint32(0)
	for bit := 0; bit < int(p.Len); bit++ {
		b := uint32(p.Addr) >> (31 - bit) & 1
		next := t.nodes[idx].child[b]
		if next == 0 {
			t.nodes = append(t.nodes, trieNode{})
			next = uint32(len(t.nodes) - 1)
			t.nodes[idx].child[b] = next
		}
		idx = next
	}
	n := &t.nodes[idx]
	if n.route != 0 {
		t.routes[n.route-1] = Route{Prefix: p, ASN: asn}
		return true
	}
	t.routes = append(t.routes, Route{Prefix: p, ASN: asn})
	n.route = uint32(len(t.routes))
	t.size++
	return false
}

// Lookup returns the longest-prefix-match route for ip.
func (t *Table) Lookup(ip packet.IPv4Addr) (Route, bool) {
	var best uint32 // route index + 1
	idx := uint32(0)
	if r := t.nodes[0].route; r != 0 {
		best = r
	}
	for bit := 0; bit < 32; bit++ {
		b := uint32(ip) >> (31 - bit) & 1
		idx = t.nodes[idx].child[b]
		if idx == 0 {
			break
		}
		if r := t.nodes[idx].route; r != 0 {
			best = r
		}
	}
	if best == 0 {
		return Route{}, false
	}
	return t.routes[best-1], true
}

// LookupASN is a convenience wrapper returning only the origin ASN.
func (t *Table) LookupASN(ip packet.IPv4Addr) (uint32, bool) {
	r, ok := t.Lookup(ip)
	return r.ASN, ok
}

// Walk calls fn for every route in the table in unspecified order. It
// stops early if fn returns false.
func (t *Table) Walk(fn func(Route) bool) {
	for _, r := range t.routes {
		if !fn(r) {
			return
		}
	}
}

// Routes returns a copy of all routes, sorted canonically.
func (t *Table) Routes() []Route {
	out := make([]Route, len(t.routes))
	copy(out, t.routes)
	sortRoutes(out)
	return out
}

// sortRoutes orders routes by prefix address, then shorter-first: the
// canonical order of RIB dumps.
func sortRoutes(rs []Route) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Prefix.Addr != rs[j].Prefix.Addr {
			return rs[i].Prefix.Addr < rs[j].Prefix.Addr
		}
		return rs[i].Prefix.Len < rs[j].Prefix.Len
	})
}
