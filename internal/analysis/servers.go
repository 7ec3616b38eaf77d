package analysis

import (
	"cmp"
	"slices"
)

// ServerCounts are the server-list aggregates of a week's summary.
type ServerCounts struct {
	Servers, HTTPS, MultiPurpose, DualRole int
}

// CountServers counts an indexed server list as webserver.Result counts
// its servers: HTTPS, multi-purpose (more than one port) and dual-role.
func CountServers(refs []ServerRef) ServerCounts {
	c := ServerCounts{Servers: len(refs)}
	for i := range refs {
		if refs[i].Flags&flagHTTPS != 0 {
			c.HTTPS++
		}
		if refs[i].NPorts > 1 {
			c.MultiPurpose++
		}
		if refs[i].Flags&flagAlsoClient != 0 {
			c.DualRole++
		}
	}
	return c
}

// HTTPS reports whether the server's record carries the HTTPS flag.
func (r ServerRef) HTTPS() bool { return r.Flags&flagHTTPS != 0 }

// compareRank orders refs as webserver.Result.RankedServers orders
// servers: bytes descending, IP ascending. IPs are unique, so the order
// has no ties.
func compareRank(a, b ServerRef) int {
	if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
		return c
	}
	return cmp.Compare(a.IP, b.IP)
}

// TopRefs returns the k first refs in rank order without sorting the
// rest: a bounded heap keeps the best k seen, so the cost is
// O(n log k) and the only allocation is the k-slot answer.
func TopRefs(refs []ServerRef, k int) []ServerRef {
	k = min(k, len(refs))
	if k <= 0 {
		return nil
	}
	// top is a heap whose root ranks last of the k kept.
	top := slices.Clone(refs[:k])
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(top, i)
	}
	for _, r := range refs[k:] {
		if compareRank(r, top[0]) < 0 {
			top[0] = r
			siftDown(top, 0)
		}
	}
	slices.SortFunc(top, compareRank)
	return top
}

// siftDown restores the heap property below i: every parent ranks after
// its children.
func siftDown(h []ServerRef, i int) {
	for {
		last := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && compareRank(h[c], h[last]) > 0 {
				last = c
			}
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}
