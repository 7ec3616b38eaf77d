// Product codecs: each product's section payload in the snapshot
// container, starting with the webserver result.
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

// flagsOf is a server's flag byte.
func flagsOf(s *webserver.Server) byte {
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
	return flags
}

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
		b = append(b, flagsOf(s))
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

// ResultHeader is the fixed part of an encoded result: every field but
// the server records.
type ResultHeader struct {
	Week          int
	EstLoss       float64
	Candidates443 int
	Responded443  int
	Valid443      int
	TotalIPs      int
	ServerBytes   uint64

	// nStrs and nText size the string slabs a build needs: how many
	// hosts and alt names the records hold, and how many bytes every
	// host, subject and alt name takes together.
	nStrs, nText int
}

// ServerRef is one validated server record of an encoded result: what a
// count or a ranking reads, and where the record starts for decoding the
// rest. It holds no pointers, so a slice of them costs the garbage
// collector nothing to scan.
type ServerRef struct {
	IP    packet.IPv4Addr
	Bytes uint64
	// Off is the record's offset in the result payload.
	Off    uint32
	Flags  uint8
	NPorts uint8
}

// serverFixedLen is a record's fixed prefix: ip 4, flags 1, bytes 8,
// member 4, port count 1.
const serverFixedLen = 18

// IndexResult validates a standalone result section payload and indexes
// its server list without decoding a record: the header, and one ref per
// server in IP order. It accepts exactly the payloads DecodeResult
// accepts, and DecodeResult is built on it, so the two cannot disagree.
// Only the canonical encoding AppendResult writes is accepted — servers
// in strictly ascending IP order, no unknown flag bits, a loss fraction
// in [0, 1], no trailing bytes — so a decoded result re-encodes to
// exactly its input and damage cannot collapse into a smaller,
// plausible-looking result.
func IndexResult(version uint16, payload []byte) (ResultHeader, []ServerRef, error) {
	if version != 1 {
		return ResultHeader{}, nil, fmt.Errorf("%w: webserver result v%d", ErrVersion, version)
	}
	var h ResultHeader
	cur := NewCursor(payload)
	h.Week = int(cur.U32())
	h.EstLoss = math.Float64frombits(cur.U64())
	for _, dst := range []*int{&h.Candidates443, &h.Responded443, &h.Valid443, &h.TotalIPs} {
		*dst = int(cur.U64())
	}
	h.ServerBytes = cur.U64()
	nServers := int(cur.U32())
	if cur.Bad() || nServers > cur.Len()/minServerLen {
		// A count the remaining payload cannot hold is rejected before
		// the index is sized by it.
		return ResultHeader{}, nil, fmt.Errorf("%w: truncated result header", ErrFormat)
	}
	if !(h.EstLoss >= 0 && h.EstLoss <= 1) {
		return ResultHeader{}, nil, fmt.Errorf("%w: loss fraction %v", ErrFormat, h.EstLoss)
	}
	refs := make([]ServerRef, nServers)
	for i := range refs {
		off := len(payload) - cur.Len()
		fixed := cur.Take(serverFixedLen)
		if fixed == nil {
			break
		}
		ref := ServerRef{
			IP:     packet.IPv4Addr(binary.BigEndian.Uint32(fixed)),
			Flags:  fixed[4],
			Bytes:  binary.BigEndian.Uint64(fixed[5:]),
			NPorts: fixed[17],
			Off:    uint32(off),
		}
		if i > 0 && ref.IP <= refs[i-1].IP {
			return ResultHeader{}, nil, fmt.Errorf("%w: server %v out of order", ErrFormat, ref.IP)
		}
		if ref.Flags&^flagsKnown != 0 {
			return ResultHeader{}, nil, fmt.Errorf("%w: server %v has unknown flags %#x", ErrFormat, ref.IP, ref.Flags)
		}
		nStrs, nText := skipTail(cur, int(ref.NPorts))
		h.nStrs += nStrs
		h.nText += nText
		refs[i] = ref
	}
	if cur.Bad() {
		return ResultHeader{}, nil, fmt.Errorf("%w: truncated server record", ErrFormat)
	}
	if cur.Len() != 0 {
		return ResultHeader{}, nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, cur.Len())
	}
	return h, refs, nil
}

// skipTail steps over the variable part of a server record — its np
// ports, hosts, certificate subject and alt names — and reports how many
// strings (hosts and alt names) and string bytes (theirs and the
// subject's) it holds. A record running past the payload poisons cur.
func skipTail(cur *Cursor, np int) (nStrs, nText int) {
	skipStrs := func(n int) {
		for j := 0; j < n && !cur.Bad(); j++ {
			size := int(cur.U16())
			cur.Take(size)
			nText += size
		}
	}
	cur.Take(2 * np)
	nh := int(cur.U16())
	skipStrs(nh)
	skipStrs(1) // the certificate subject
	na := int(cur.U16())
	skipStrs(na)
	return nh + na, nText
}

// DecodeResult parses a standalone result section payload: IndexResult,
// then BuildResult.
func DecodeResult(version uint16, payload []byte) (*webserver.Result, error) {
	h, refs, err := IndexResult(version, payload)
	if err != nil {
		return nil, err
	}
	return BuildResult(h, refs, payload), nil
}

// BuildResult decodes every record of an indexed payload into the full
// result; h and refs are what IndexResult returned for payload. The
// result copies what it keeps, so payload may be reused afterwards.
//
// The records share backing arrays, sized exactly by the index: every
// server lives in one []webserver.Server, every server's ports in one
// []uint16, every host and alt name in one []string, and every host,
// subject and alt name is a substring of one string holding all their
// bytes. Each record's slices are clipped, so an append reallocates
// instead of writing into the next record; empty lists stay nil.
func BuildResult(h ResultHeader, refs []ServerRef, payload []byte) *webserver.Result {
	r := &webserver.Result{
		Week: h.Week, EstLoss: h.EstLoss,
		Candidates443: h.Candidates443, Responded443: h.Responded443, Valid443: h.Valid443,
		TotalIPs: h.TotalIPs, ServerBytes: h.ServerBytes,
	}
	nPorts := 0
	for i := range refs {
		nPorts += int(refs[i].NPorts)
	}
	d := newRecordDecoder(nPorts, h.nStrs, h.nText)
	servers := make([]webserver.Server, len(refs))
	r.Servers = make(map[packet.IPv4Addr]*webserver.Server, len(refs))
	for i := range refs {
		d.decode(payload[refs[i].Off:], &servers[i])
		r.Servers[refs[i].IP] = &servers[i]
	}
	return r
}

// DecodeServer decodes the one record ref locates in payload, a payload
// IndexResult accepted, into a server of its own.
func DecodeServer(payload []byte, ref ServerRef) *webserver.Server {
	rec := payload[ref.Off:]
	nStrs, nText := skipTail(NewCursor(rec[serverFixedLen:]), int(ref.NPorts))
	d := newRecordDecoder(int(ref.NPorts), nStrs, nText)
	s := new(webserver.Server)
	d.decode(rec, s)
	return s
}

// recordDecoder decodes validated server records into slabs sized for
// them.
type recordDecoder struct {
	ports []uint16
	strs  []string
	// text was grown to its final size, so a write never moves the
	// bytes earlier strings were cut from.
	text strings.Builder
}

func newRecordDecoder(nPorts, nStrs, nText int) *recordDecoder {
	d := &recordDecoder{ports: make([]uint16, nPorts), strs: make([]string, nStrs)}
	d.text.Grow(nText)
	return d
}

// decode fills s from the record at the start of rec.
func (d *recordDecoder) decode(rec []byte, s *webserver.Server) {
	cur := NewCursor(rec)
	s.IP = packet.IPv4Addr(cur.U32())
	flags := cur.U8()
	s.HTTP = flags&flagHTTP != 0
	s.HTTPS = flags&flagHTTPS != 0
	s.AlsoClient = flags&flagAlsoClient != 0
	s.Bytes = cur.U64()
	s.Member = int32(cur.U32())
	if n := int(cur.U8()); n > 0 {
		s.Ports, d.ports = d.ports[:n:n], d.ports[n:]
		for j := range s.Ports {
			s.Ports[j] = cur.U16()
		}
	}
	if n := int(cur.U16()); n > 0 {
		s.Hosts, d.strs = d.strs[:n:n], d.strs[n:]
		for j := range s.Hosts {
			s.Hosts[j] = d.str(cur)
		}
	}
	s.Cert.Subject = d.str(cur)
	if n := int(cur.U16()); n > 0 {
		s.Cert.AltNames, d.strs = d.strs[:n:n], d.strs[n:]
		for j := range s.Cert.AltNames {
			s.Cert.AltNames[j] = d.str(cur)
		}
	}
}

// str reads one u16-length-prefixed string into the text slab.
func (d *recordDecoder) str(cur *Cursor) string {
	off := d.text.Len()
	d.text.Write(cur.Take(int(cur.U16())))
	return d.text.String()[off:]
}
