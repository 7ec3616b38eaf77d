// Package dissect implements the paper's traffic dissection (Section
// 2.2.1, Figure 1): starting from raw sFlow records it peels off, in
// succession, all non-IPv4 traffic, everything that is not
// member-to-member or stays local, and all member-to-member IPv4 that is
// neither TCP nor UDP. What remains is the "peering traffic" that every
// later analysis works on.
package dissect

import (
	"fmt"
	"io"

	"ixplens/internal/packet"
	"ixplens/internal/sflow"
)

// Class is the filter bucket a sampled frame falls into.
type Class uint8

// Filter buckets, in cascade order.
const (
	// ClassUndecodable frames failed even Ethernet decoding.
	ClassUndecodable Class = iota
	// ClassNonIPv4 is native IPv6, ARP and other non-IPv4 traffic.
	ClassNonIPv4
	// ClassLocal is traffic that is not member-to-member (IXP
	// management plane, infrastructure ports).
	ClassLocal
	// ClassNonTCPUDP is member-to-member IPv4 that is neither TCP nor
	// UDP (ICMP, GRE, ESP, ...).
	ClassNonTCPUDP
	// ClassPeeringTCP and ClassPeeringUDP form the peering traffic.
	ClassPeeringTCP
	ClassPeeringUDP
)

// String names the bucket like Figure 1 does.
func (c Class) String() string {
	switch c {
	case ClassUndecodable:
		return "undecodable"
	case ClassNonIPv4:
		return "non-IPv4"
	case ClassLocal:
		return "local/non-member"
	case ClassNonTCPUDP:
		return "non-TCP/UDP"
	case ClassPeeringTCP:
		return "peering-TCP"
	case ClassPeeringUDP:
		return "peering-UDP"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// IsPeering reports whether the class survives the whole cascade.
func (c Class) IsPeering() bool { return c == ClassPeeringTCP || c == ClassPeeringUDP }

// Record is one classified sample. Payload aliases the decode buffer and
// is only valid during the callback that receives the record.
type Record struct {
	Class    Class
	SrcIP    packet.IPv4Addr
	DstIP    packet.IPv4Addr
	SrcPort  uint16
	DstPort  uint16
	Proto    packet.IPProto
	FrameLen uint32
	// Bytes is the traffic volume this sample stands for:
	// FrameLen × SamplingRate.
	Bytes uint64
	// InMember and OutMember are the member AS indices of the ports the
	// frame crossed (-1 when not a member port).
	InMember  int32
	OutMember int32
	// Payload is the captured transport payload prefix.
	Payload []byte
}

// Counts tallies the cascade, in samples and represented bytes.
type Counts struct {
	Total       int
	Undecodable int
	NonIPv4     int
	Local       int
	NonTCPUDP   int
	PeeringTCP  int
	PeeringUDP  int

	// PanicQuarantined counts samples that were never classified because
	// classification (or an observer callback) panicked on their batch:
	// the panic is recovered, the poisoned work quarantined and counted
	// here instead of killing the run. Quarantined samples are NOT
	// included in Total — they carry no trustworthy classification.
	PanicQuarantined int

	TotalBytes      uint64
	PeeringTCPBytes uint64
	PeeringUDPBytes uint64
}

// Peering returns the number of peering samples.
func (c *Counts) Peering() int { return c.PeeringTCP + c.PeeringUDP }

// PeeringShare is the fraction of samples surviving the cascade (the
// paper reports >98.5%).
func (c *Counts) PeeringShare() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Peering()) / float64(c.Total)
}

// TCPShare is the TCP fraction of peering bytes (82% in the paper).
func (c *Counts) TCPShare() float64 {
	tot := c.PeeringTCPBytes + c.PeeringUDPBytes
	if tot == 0 {
		return 0
	}
	return float64(c.PeeringTCPBytes) / float64(tot)
}

// MemberResolver maps a switch port to a member AS index.
type MemberResolver interface {
	MemberOfPort(port uint32) (int32, bool)
}

// Classifier applies the cascade to flow samples.
type Classifier struct {
	members MemberResolver
	frame   packet.Frame
	// rec is ClassifyDatagram's scratch record, kept here so handing it
	// to the callback does not move one to the heap per datagram.
	rec Record
	m   *Metrics
}

// NewClassifier builds a classifier using the fabric's port map.
func NewClassifier(members MemberResolver) *Classifier {
	return &Classifier{members: members}
}

// SetMetrics attaches an observability bundle (nil disables). Call it
// before the classifier starts classifying; the bundle itself is safe to
// share across classifiers.
func (c *Classifier) SetMetrics(m *Metrics) { c.m = m }

// Classify fills rec from one flow sample and returns its class.
func (c *Classifier) Classify(fs *sflow.FlowSample, rec *Record) Class {
	cl := c.classify(fs, rec)
	if c.m != nil {
		c.m.record(cl)
	}
	return cl
}

func (c *Classifier) classify(fs *sflow.FlowSample, rec *Record) Class {
	*rec = Record{InMember: -1, OutMember: -1}
	rec.FrameLen = fs.Raw.FrameLength
	// A rate of zero means the exporter did not subsample (or exported a
	// bogus rate); either way the sample stands for exactly itself.
	rate := uint64(fs.SamplingRate)
	if rate == 0 {
		rate = 1
	}
	rec.Bytes = uint64(fs.Raw.FrameLength) * rate
	if !fs.HasRaw || len(fs.Raw.Header) == 0 || packet.Decode(fs.Raw.Header, &c.frame) != nil {
		rec.Class = ClassUndecodable
		return rec.Class
	}
	f := &c.frame

	// Snapshots that end before the network layer is reached (mid-VLAN
	// tag, mid-IP header) carry no classifiable information either.
	if f.Truncated && !f.IsIPv4 && !f.IsIPv6 {
		rec.Class = ClassUndecodable
		return rec.Class
	}

	// Step 1: drop non-IPv4 (native IPv6, ARP, MPLS, ...).
	if !f.IsIPv4 {
		rec.Class = ClassNonIPv4
		return rec.Class
	}
	rec.SrcIP = f.IPv4.Src
	rec.DstIP = f.IPv4.Dst
	rec.Proto = f.IPv4.Protocol

	// Step 2: drop traffic that is not member-to-member or stays local.
	in, inOK := c.members.MemberOfPort(fs.InputIf)
	out, outOK := c.members.MemberOfPort(fs.OutputIf)
	if !inOK || !outOK || in == out {
		rec.Class = ClassLocal
		return rec.Class
	}
	rec.InMember, rec.OutMember = in, out

	// Step 3: drop member-to-member IPv4 that is not TCP or UDP.
	switch f.Transport {
	case packet.TransportTCP:
		rec.Class = ClassPeeringTCP
		rec.SrcPort, rec.DstPort = f.TCP.SrcPort, f.TCP.DstPort
	case packet.TransportUDP:
		rec.Class = ClassPeeringUDP
		rec.SrcPort, rec.DstPort = f.UDP.SrcPort, f.UDP.DstPort
	default:
		rec.Class = ClassNonTCPUDP
		return rec.Class
	}
	rec.Payload = f.Payload
	return rec.Class
}

// Tally adds a classified record to the counts.
func (c *Counts) Tally(rec *Record) {
	c.Total++
	c.TotalBytes += rec.Bytes
	switch rec.Class {
	case ClassUndecodable:
		c.Undecodable++
	case ClassNonIPv4:
		c.NonIPv4++
	case ClassLocal:
		c.Local++
	case ClassNonTCPUDP:
		c.NonTCPUDP++
	case ClassPeeringTCP:
		c.PeeringTCP++
		c.PeeringTCPBytes += rec.Bytes
	case ClassPeeringUDP:
		c.PeeringUDP++
		c.PeeringUDPBytes += rec.Bytes
	}
}

// DatagramSource yields sFlow datagrams, io.EOF at the end.
//
// Aliasing contract: the datagram filled by Next — including its
// Flows/Counters slices and the Raw.Header bytes they point to — is
// owned by the source and remains valid only until the following Next,
// Reset or release of the source. Consumers that need samples beyond
// that window must copy them. Consumers may freely mutate the handed-out
// datagram (the anonymizer rewrites header bytes in place); sources that
// support a second pass must not let such mutations leak into the data
// a later pass reads.
type DatagramSource interface {
	Next(*sflow.Datagram) error
}

// ClassifyDatagram classifies every flow sample of one datagram,
// tallying into counts and invoking fn (which may be nil) per record —
// with panic isolation: if classifying a sample (or its fn callback)
// panics, the panic is recovered and the sample plus the datagram's
// remaining samples are quarantined into counts.PanicQuarantined
// instead of killing the caller. One poisoned datagram costs at most
// its own samples.
func (c *Classifier) ClassifyDatagram(d *sflow.Datagram, counts *Counts, fn func(*Record)) {
	i := 0
	defer func() {
		if r := recover(); r != nil {
			n := len(d.Flows) - i
			counts.PanicQuarantined += n
			if c.m != nil {
				c.m.PanicQuarantined.Add(uint64(n))
			}
		}
	}()
	rec := &c.rec
	for ; i < len(d.Flows); i++ {
		c.Classify(&d.Flows[i], rec)
		if fn != nil {
			fn(rec)
		}
		// Tally only after the observer returned: a sample whose callback
		// panicked is quarantined, not half-counted.
		counts.Tally(rec)
	}
}

// SliceSource adapts an in-memory datagram slice to a rewindable
// DatagramSource. It is the buffered, hold-a-whole-week-in-memory
// representation, for tests and benchmarks that make many passes over
// one week; every production path streams.
//
// Next hands out defensive copies backed by source-owned scratch
// buffers, so a consumer that mutates the datagram it was given — the
// prefix-preserving anonymizer rewrites Raw.Header bytes in place —
// cannot corrupt the stored capture: Reset always replays the pristine
// data. Per the DatagramSource contract the handed-out datagram is only
// valid until the following Next or Reset call.
type SliceSource struct {
	Datagrams []sflow.Datagram
	pos       int

	// Reusable scratch backing the datagram handed to the consumer.
	flows    []sflow.FlowSample
	counters []sflow.CounterSample
	arena    []byte
}

// Next copies the next datagram into d.
func (s *SliceSource) Next(d *sflow.Datagram) error {
	if s.pos >= len(s.Datagrams) {
		return io.EOF
	}
	src := &s.Datagrams[s.pos]
	s.pos++
	*d = *src
	s.flows = append(s.flows[:0], src.Flows...)
	s.arena = s.arena[:0]
	for i := range s.flows {
		h := src.Flows[i].Raw.Header
		off := len(s.arena)
		s.arena = append(s.arena, h...)
		s.flows[i].Raw.Header = s.arena[off:len(s.arena):len(s.arena)]
	}
	s.counters = append(s.counters[:0], src.Counters...)
	d.Flows = s.flows
	d.Counters = s.counters
	return nil
}

// Reset rewinds the source for another pass over the pristine capture.
func (s *SliceSource) Reset() { s.pos = 0 }
