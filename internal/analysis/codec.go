// Product codecs. The webserver result layout is the one IXPSNAP1
// shipped — moved here unchanged so both the legacy container and the
// multi-section IXPSNAP2 "webserver" section produce byte-identical
// result segments.
package analysis

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"ixplens/internal/core/webserver"
	"ixplens/internal/packet"
)

// Cursor is a bounds-checked big-endian reader over a payload; the
// first short read poisons it and every later take returns zero.
type Cursor struct {
	b   []byte
	bad bool
}

// NewCursor wraps a payload.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Bad reports whether any read ran past the payload.
func (c *Cursor) Bad() bool { return c.bad }

// Len is the number of unconsumed bytes.
func (c *Cursor) Len() int { return len(c.b) }

// Take consumes n bytes, nil (and poisoned) on underrun.
func (c *Cursor) Take(n int) []byte {
	if c.bad || n < 0 || len(c.b) < n {
		c.bad = true
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

// U8 reads one byte.
func (c *Cursor) U8() byte {
	b := c.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (c *Cursor) U16() uint16 {
	b := c.Take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (c *Cursor) U32() uint32 {
	b := c.Take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (c *Cursor) U64() uint64 {
	b := c.Take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Str reads a u16-length-prefixed string.
func (c *Cursor) Str() string {
	n := int(c.U16())
	b := c.Take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// AppendString appends a u16-length-prefixed string, truncating past
// 64 KiB.
func AppendString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// Server flag bits of the result encoding.
const (
	flagHTTP = 1 << iota
	flagHTTPS
	flagAlsoClient

	flagsKnown = flagHTTP | flagHTTPS | flagAlsoClient
)

// minServerLen is the smallest encoded server record: ip 4, flags 1,
// bytes 8, member 4, and the four empty set/string counts (ports 1,
// hosts 2, subject 2, alt names 2).
const minServerLen = 24

// AppendResult appends the deterministic identification-result encoding
// (servers sorted by IP, sets in their stored order):
//
//	result := week:u32 estLoss:f64bits funnel:u64×4 serverBytes:u64
//	          nServers:u32 server*
//	server := ip:u32 flags:u8 bytes:u64 member:u32 ports hosts cert
func AppendResult(b []byte, r *webserver.Result) ([]byte, error) {
	if r == nil {
		return b, fmt.Errorf("%w: nil result", ErrFormat)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(r.Week))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.EstLoss))
	for _, v := range []int{r.Candidates443, r.Responded443, r.Valid443, r.TotalIPs} {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	b = binary.BigEndian.AppendUint64(b, r.ServerBytes)

	ips := make([]packet.IPv4Addr, 0, len(r.Servers))
	for ip := range r.Servers {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	b = binary.BigEndian.AppendUint32(b, uint32(len(ips)))
	for _, ip := range ips {
		s := r.Servers[ip]
		b = binary.BigEndian.AppendUint32(b, uint32(ip))
		var flags byte
		if s.HTTP {
			flags |= flagHTTP
		}
		if s.HTTPS {
			flags |= flagHTTPS
		}
		if s.AlsoClient {
			flags |= flagAlsoClient
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint64(b, s.Bytes)
		b = binary.BigEndian.AppendUint32(b, uint32(s.Member))
		if len(s.Ports) > 255 {
			return b, fmt.Errorf("analysis: server %v has %d ports", ip, len(s.Ports))
		}
		b = append(b, byte(len(s.Ports)))
		for _, p := range s.Ports {
			b = binary.BigEndian.AppendUint16(b, p)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(len(s.Hosts)))
		for _, h := range s.Hosts {
			b = AppendString(b, h)
		}
		b = AppendString(b, s.Cert.Subject)
		b = binary.BigEndian.AppendUint16(b, uint16(len(s.Cert.AltNames)))
		for _, a := range s.Cert.AltNames {
			b = AppendString(b, a)
		}
	}
	return b, nil
}

// ReadResult decodes one result from the cursor, leaving any trailing
// bytes unconsumed (the v1 container embeds the result mid-payload).
// Only the canonical encoding AppendResult writes is accepted — servers
// in strictly ascending IP order, no unknown flag bits, a loss fraction
// in [0, 1] — so a decoded result re-encodes to exactly its input and
// damage cannot collapse into a smaller, plausible-looking result.
//
// The decoded records share backing arrays, sized exactly by a first
// pass over the framing: every server lives in one []webserver.Server,
// every server's ports in one []uint16, every host and alt name in one
// []string, and every host, subject and alt name is a substring of one
// string holding all their bytes. Each record's slices are clipped, so
// an append reallocates instead of writing into the next record; empty
// lists stay nil.
func ReadResult(cur *Cursor) (*webserver.Result, error) {
	r := &webserver.Result{Week: int(cur.U32())}
	r.EstLoss = math.Float64frombits(cur.U64())
	for _, dst := range []*int{&r.Candidates443, &r.Responded443, &r.Valid443, &r.TotalIPs} {
		*dst = int(cur.U64())
	}
	r.ServerBytes = cur.U64()

	nServers := int(cur.U32())
	if cur.Bad() || nServers > cur.Len()/minServerLen {
		// A count the remaining payload cannot hold is rejected before
		// the map is sized by it.
		return nil, fmt.Errorf("%w: truncated result header", ErrFormat)
	}
	if !(r.EstLoss >= 0 && r.EstLoss <= 1) {
		return nil, fmt.Errorf("%w: loss fraction %v", ErrFormat, r.EstLoss)
	}
	nPorts, nStrs, nText, ok := sizeServers(*cur, nServers)
	if !ok {
		return nil, fmt.Errorf("%w: truncated server record", ErrFormat)
	}
	// The builder was grown to its final size, so a write never moves
	// the bytes earlier strings were cut from.
	var text strings.Builder
	text.Grow(nText)
	str := func() string {
		off := text.Len()
		text.Write(cur.Take(int(cur.U16())))
		return text.String()[off:]
	}
	servers := make([]webserver.Server, nServers)
	ports := make([]uint16, nPorts)
	strs := make([]string, nStrs)
	r.Servers = make(map[packet.IPv4Addr]*webserver.Server, nServers)
	var prev packet.IPv4Addr
	for i := range servers {
		s := &servers[i]
		s.IP = packet.IPv4Addr(cur.U32())
		if i > 0 && s.IP <= prev {
			return nil, fmt.Errorf("%w: server %v out of order", ErrFormat, s.IP)
		}
		prev = s.IP
		flags := cur.U8()
		if flags&^flagsKnown != 0 {
			return nil, fmt.Errorf("%w: server %v has unknown flags %#x", ErrFormat, s.IP, flags)
		}
		s.HTTP = flags&flagHTTP != 0
		s.HTTPS = flags&flagHTTPS != 0
		s.AlsoClient = flags&flagAlsoClient != 0
		s.Bytes = cur.U64()
		s.Member = int32(cur.U32())
		if n := int(cur.U8()); n > 0 {
			s.Ports, ports = ports[:n:n], ports[n:]
			for j := range s.Ports {
				s.Ports[j] = cur.U16()
			}
		}
		if n := int(cur.U16()); n > 0 {
			s.Hosts, strs = strs[:n:n], strs[n:]
			for j := range s.Hosts {
				s.Hosts[j] = str()
			}
		}
		s.Cert.Subject = str()
		if n := int(cur.U16()); n > 0 {
			s.Cert.AltNames, strs = strs[:n:n], strs[n:]
			for j := range s.Cert.AltNames {
				s.Cert.AltNames[j] = str()
			}
		}
		r.Servers[s.IP] = s
	}
	return r, nil
}

// sizeServers walks n encoded server records on a copy of the cursor
// without decoding them: how many ports, how many strings (hosts and
// alt names) and how many string bytes (theirs and the subjects') the
// records hold. ok is false when the records run past the payload.
func sizeServers(cur Cursor, n int) (nPorts, nStrs, nText int, ok bool) {
	skipStr := func() {
		size := int(cur.U16())
		cur.Take(size)
		nText += size
	}
	for i := 0; i < n && !cur.Bad(); i++ {
		cur.Take(4 + 1 + 8 + 4) // ip, flags, bytes, member
		np := int(cur.U8())
		cur.Take(2 * np)
		nPorts += np
		nh := int(cur.U16())
		for j := 0; j < nh && !cur.Bad(); j++ {
			skipStr()
		}
		skipStr() // the certificate subject
		na := int(cur.U16())
		for j := 0; j < na && !cur.Bad(); j++ {
			skipStr()
		}
		nStrs += nh + na
	}
	return nPorts, nStrs, nText, !cur.Bad()
}

// DecodeResult parses a standalone result section payload.
func DecodeResult(version uint16, payload []byte) (*webserver.Result, error) {
	if version != 1 {
		return nil, fmt.Errorf("%w: webserver result v%d", ErrVersion, version)
	}
	cur := NewCursor(payload)
	res, err := ReadResult(cur)
	if err != nil {
		return nil, err
	}
	if cur.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, cur.Len())
	}
	return res, nil
}
