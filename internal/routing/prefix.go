// Package routing provides the BGP-derived substrate the study leans on:
// a routing information base (prefix → origin AS) with longest-prefix
// match, and the AS-level graph used to split the routed AS set into the
// member set A(L), the distance-1 set A(M) and the remainder A(G)
// (Section 3.2 of the paper).
package routing

import (
	"fmt"

	"ixplens/internal/packet"
)

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	// Addr is the network address; bits below Len are zero.
	Addr packet.IPv4Addr
	// Len is the prefix length in bits, 0..32.
	Len uint8
}

// MakePrefix masks addr down to length bits.
func MakePrefix(addr packet.IPv4Addr, length uint8) Prefix {
	return Prefix{Addr: addr & Prefix{Len: length}.netmask(), Len: length}
}

// netmask returns the prefix's network mask.
func (p Prefix) netmask() packet.IPv4Addr {
	if p.Len == 0 {
		return 0
	}
	return packet.IPv4Addr(^uint32(0) << (32 - p.Len))
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip packet.IPv4Addr) bool {
	return ip&p.netmask() == p.Addr
}

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 {
	return 1 << (32 - p.Len)
}

// First returns the lowest address in the prefix.
func (p Prefix) First() packet.IPv4Addr { return p.Addr }

// Last returns the highest address in the prefix.
func (p Prefix) Last() packet.IPv4Addr {
	return p.Addr | ^p.netmask()
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.Len > q.Len {
		p, q = q, p
	}
	return p.Contains(q.Addr)
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Len)
}
