// Package ixp models the measured IXP's public peering fabric: member
// ports on edge switches, the peering relationships established across
// the fabric, and the sFlow export path (sampling collector that batches
// flow samples into per-agent datagrams).
//
// The traffic generator drives this fabric; the analysis pipeline sees
// only the sFlow datagrams that leave it, exactly like the paper's
// vantage point.
package ixp

import (
	"sort"

	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/randutil"
	"ixplens/internal/sflow"
)

// Port numbering: member ports start at firstMemberPort; lower ifIndex
// values are infrastructure (management, route servers).
const (
	// ManagementPort carries IXP-internal traffic.
	ManagementPort  uint32 = 1
	firstMemberPort uint32 = 1000
	// PeeringVLAN is the VLAN of the public peering LAN.
	PeeringVLAN uint16 = 600
)

// Fabric is the switching fabric of the IXP.
type Fabric struct {
	w *netmodel.World
	// numAgents is the number of edge switches exporting sFlow.
	numAgents int
	// peerProb is the probability that two members peer directly over
	// the public fabric (most, but not all, member pairs do).
	peerProb float64
	// transitMembers are members with a transit role: traffic between
	// non-peering members is relayed through one of them.
	transitMembers []int32
}

// NewFabric builds the fabric for a world.
func NewFabric(w *netmodel.World) *Fabric {
	f := &Fabric{w: w, numAgents: 8, peerProb: 0.96}
	for i := range w.ASes {
		a := &w.ASes[i]
		if a.MemberWeek != 0 && (a.Role == netmodel.RoleTransit || a.Role == netmodel.RoleReseller) {
			f.transitMembers = append(f.transitMembers, int32(i))
		}
	}
	if len(f.transitMembers) == 0 {
		// Degenerate worlds still need a relay; use the first member.
		f.transitMembers = append(f.transitMembers, 0)
	}
	return f
}

// PortOfMember returns the ifIndex of a member's port. Ports exist for
// all eventual members; whether the member is active in a given week is
// the caller's concern.
func (f *Fabric) PortOfMember(asIdx int32) uint32 {
	return firstMemberPort + uint32(asIdx)
}

// MemberOfPort inverts PortOfMember. ok is false for infrastructure
// ports and out-of-range values.
func (f *Fabric) MemberOfPort(port uint32) (int32, bool) {
	if port < firstMemberPort {
		return 0, false
	}
	idx := int32(port - firstMemberPort)
	if int(idx) >= len(f.w.ASes) || f.w.ASes[idx].MemberWeek == 0 {
		return 0, false
	}
	return idx, true
}

// MACOfMember returns the member router's MAC address on the peering
// LAN. The locally-administered OUI 02:49:58 ("IXP") plus the AS index
// makes MACs stable and collision-free.
func (f *Fabric) MACOfMember(asIdx int32) packet.MAC {
	return packet.MAC{0x02, 0x49, 0x58, byte(asIdx >> 16), byte(asIdx >> 8), byte(asIdx)}
}

// Peers reports whether two members exchange routes directly over the
// public fabric. It is symmetric and deterministic.
func (f *Fabric) Peers(a, b int32) bool {
	if a == b {
		return true
	}
	if a > b {
		a, b = b, a
	}
	return randutil.HashUnit(uint64(f.w.Cfg.Seed), 0x9ee5, uint64(a), uint64(b)) < f.peerProb
}

// RelayMember returns the transit member that carries traffic between
// two members that do not peer directly.
func (f *Fabric) RelayMember(a, b int32) int32 {
	h := randutil.Hash64(uint64(f.w.Cfg.Seed), 0x4e1a, uint64(a), uint64(b))
	return f.transitMembers[int(h%uint64(len(f.transitMembers)))]
}

// IngressMember resolves which member port traffic from an AS enters
// through in a given week: the AS itself when it is a member, otherwise
// its designated upstream member. It returns -1 when the AS has no path
// onto the fabric that week.
func (f *Fabric) IngressMember(asIdx int32, isoWeek int) int32 {
	a := &f.w.ASes[asIdx]
	if a.IsMemberInWeek(isoWeek) {
		return asIdx
	}
	if via := a.ViaMember; via >= 0 && via != asIdx && f.w.ASes[via].IsMemberInWeek(isoWeek) {
		return via
	}
	if up := a.Upstream; up >= 0 && f.w.ASes[up].IsMemberInWeek(isoWeek) {
		return up
	}
	return -1
}

// LinkFor determines the (ingress, egress) member ports for a frame from
// srcAS to dstAS during isoWeek, honouring the peering matrix: if the
// two edge members do not peer directly, the frame takes two fabric
// hops via a transit member, and the sampled hop is the one facing the
// destination (transit → egress). ok is false when the traffic cannot
// cross the public fabric at all.
func (f *Fabric) LinkFor(srcAS, dstAS int32, isoWeek int) (ingress, egress int32, ok bool) {
	in := f.IngressMember(srcAS, isoWeek)
	out := f.IngressMember(dstAS, isoWeek)
	if in < 0 || out < 0 || in == out {
		return 0, 0, false
	}
	if !f.Peers(in, out) {
		relay := f.RelayMember(in, out)
		if relay == in || relay == out {
			return in, out, true
		}
		return relay, out, true
	}
	return in, out, true
}

// Collector batches flow samples into sFlow datagrams, one exporter per
// edge switch, and hands full datagrams to a sink. Sequence numbers and
// sample pools evolve like a real agent's.
type Collector struct {
	fabric  *Fabric
	sink    func(*sflow.Datagram) error
	pending []sflow.Datagram
	// samplesPerDatagram controls batching (UDP MTU limits real agents
	// to a handful of 128-byte samples per datagram).
	samplesPerDatagram int
	seq                []uint32
	sampleSeq          []uint32
	pool               []uint32
	uptime             uint32
	rate               uint32

	// reuse switches the collector to buffer-reuse mode: header bytes
	// live in per-agent arenas and the Flows/Counters slices are recycled
	// after every flush, so a steady-state capture allocates nothing per
	// frame. See SetBufferReuse for the sink contract this changes.
	reuse  bool
	arenas [][]byte

	// Per-port traffic accounting, scaled up by the sampling rate —
	// what a real switch's interface counters would show (modulo
	// sampling error). Keys are ifIndex values.
	inOctets  map[uint32]uint64
	outOctets map[uint32]uint64
	inPkts    map[uint32]uint32
	outPkts   map[uint32]uint32

	m *CollectorMetrics
}

// NewCollector builds a collector exporting at the given sampling rate.
func NewCollector(f *Fabric, rate uint32, sink func(*sflow.Datagram) error) *Collector {
	c := &Collector{
		fabric: f, sink: sink, samplesPerDatagram: 6, rate: rate,
		seq:       make([]uint32, f.numAgents),
		sampleSeq: make([]uint32, f.numAgents),
		pool:      make([]uint32, f.numAgents),
		inOctets:  make(map[uint32]uint64),
		outOctets: make(map[uint32]uint64),
		inPkts:    make(map[uint32]uint32),
		outPkts:   make(map[uint32]uint32),
	}
	c.pending = make([]sflow.Datagram, f.numAgents)
	for i := range c.pending {
		c.pending[i].AgentAddr = [4]byte{10, 99, 0, byte(i + 1)}
		c.pending[i].SubAgentID = uint32(i)
	}
	return c
}

// SetBufferReuse toggles buffer-reuse mode. Off (the default), every
// flushed datagram owns freshly allocated Flows and Raw.Header backing
// arrays, so a sink may retain them indefinitely. On, the collector
// recycles those buffers across flushes: the datagram passed to the sink (and
// everything it points to) is valid only for the duration of the sink
// call, and the sink must copy whatever it keeps. Streaming consumers
// (dissect.StreamProcessor.Add, encoders that serialize immediately)
// honour that contract and gain an allocation-free steady state.
// Toggle only between flushes, before the affected frames are added.
func (c *Collector) SetBufferReuse(on bool) {
	c.reuse = on
	if on && c.arenas == nil {
		c.arenas = make([][]byte, len(c.pending))
	}
}

// SetMetrics attaches an observability bundle (nil disables). Collector
// is single-goroutine, so this may be called at any point between
// flushes.
func (c *Collector) SetMetrics(m *CollectorMetrics) { c.m = m }

// agentOfPort spreads member ports across the edge switches.
func (c *Collector) agentOfPort(port uint32) int {
	return int(port) % c.fabric.numAgents
}

// AddFrame records one sampled frame entering through inPort and leaving
// through outPort. header is the snapped frame prefix; frameLen the
// original length on the wire.
func (c *Collector) AddFrame(inPort, outPort uint32, header []byte, frameLen int) error {
	agent := c.agentOfPort(inPort)
	c.sampleSeq[agent]++
	c.pool[agent] += c.rate
	var hdr []byte
	if c.reuse {
		arena := c.arenas[agent]
		off := len(arena)
		arena = append(arena, header...)
		c.arenas[agent] = arena
		hdr = arena[off:len(arena):len(arena)]
	} else {
		hdr = make([]byte, len(header))
		copy(hdr, header)
	}
	fs := sflow.FlowSample{
		SequenceNum:   c.sampleSeq[agent],
		SourceIDIndex: inPort & 0xffffff,
		SamplingRate:  c.rate,
		SamplePool:    c.pool[agent],
		InputIf:       inPort,
		OutputIf:      outPort,
		HasRaw:        true,
		Raw: sflow.RawPacketHeader{
			Protocol:    sflow.HeaderProtoEthernet,
			FrameLength: uint32(frameLen),
			Header:      hdr,
		},
		HasSwitch: true,
		Switch: sflow.ExtendedSwitch{
			SrcVLAN: uint32(PeeringVLAN), DstVLAN: uint32(PeeringVLAN),
		},
	}
	d := &c.pending[agent]
	d.Flows = append(d.Flows, fs)
	if c.m != nil {
		c.m.Samples.Inc()
	}
	c.uptime += 7 // arbitrary monotone clock
	scaled := uint64(frameLen) * uint64(c.rate)
	c.inOctets[inPort] += scaled
	c.outOctets[outPort] += scaled
	c.inPkts[inPort] += c.rate
	c.outPkts[outPort] += c.rate
	if len(d.Flows) >= c.samplesPerDatagram {
		return c.flushAgent(agent)
	}
	return nil
}

// PortCounters returns the interface counters accumulated for a port,
// as a real agent would report them in a generic counters record.
func (c *Collector) PortCounters(port uint32) sflow.GenericInterfaceCounters {
	return sflow.GenericInterfaceCounters{
		IfIndex: port, IfType: 6, IfSpeed: 10_000_000_000,
		IfDirection: 1, IfStatus: 3,
		InOctets: c.inOctets[port], OutOctets: c.outOctets[port],
		InUcastPkts: c.inPkts[port], OutUcastPkts: c.outPkts[port],
	}
}

// EmitPortCounters sends a counter sample for every port that saw
// traffic, like an agent's periodic counter export. Ports are emitted
// in ascending order: map iteration order would otherwise vary the
// datagram stream run to run, breaking the determinism that replay and
// fault injection (both keyed on datagram index) rely on.
func (c *Collector) EmitPortCounters() error {
	ports := make([]uint32, 0, len(c.inOctets))
	for port := range c.inOctets {
		ports = append(ports, port)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	for _, port := range ports {
		if err := c.AddCounters(port, c.PortCounters(port)); err != nil {
			return err
		}
	}
	return nil
}

// AddCounters emits a generic interface counter sample for a port.
func (c *Collector) AddCounters(port uint32, g sflow.GenericInterfaceCounters) error {
	agent := c.agentOfPort(port)
	d := &c.pending[agent]
	d.Counters = append(d.Counters, sflow.CounterSample{
		SequenceNum:   c.sampleSeq[agent],
		SourceIDIndex: port & 0xffffff,
		HasGeneric:    true,
		Generic:       g,
	})
	if c.m != nil {
		c.m.CounterSamples.Inc()
	}
	if len(d.Counters) >= c.samplesPerDatagram {
		return c.flushAgent(agent)
	}
	return nil
}

func (c *Collector) flushAgent(agent int) error {
	d := &c.pending[agent]
	if len(d.Flows) == 0 && len(d.Counters) == 0 {
		return nil
	}
	c.seq[agent]++
	d.SequenceNum = c.seq[agent]
	d.Uptime = c.uptime
	err := c.sink(d)
	if c.m != nil {
		c.m.Flushes.Inc()
		if c.reuse {
			c.m.BufferReuses.Inc()
		}
	}
	if c.reuse {
		d.Flows = d.Flows[:0]
		d.Counters = d.Counters[:0]
		c.arenas[agent] = c.arenas[agent][:0]
	} else {
		d.Flows = nil
		d.Counters = nil
	}
	return err
}

// Flush drains all partially filled datagrams to the sink.
func (c *Collector) Flush() error {
	for agent := range c.pending {
		if err := c.flushAgent(agent); err != nil {
			return err
		}
	}
	return nil
}
