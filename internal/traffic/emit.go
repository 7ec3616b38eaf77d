package traffic

import (
	"bytes"
	"math/rand"

	"ixplens/internal/ixp"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/randutil"
)

// emitFrame snaps and submits one rendered frame. frameLen is the
// original wire length, frame the rendered prefix (at least the headers).
func (g *Generator) emitFrame(col *ixp.Collector, ingress, egress int32, frame []byte, frameLen int) error {
	snap := frame
	if len(snap) > g.opts.SnapLen {
		snap = snap[:g.opts.SnapLen]
	}
	if frameLen < len(frame) {
		frameLen = len(frame)
	}
	return col.AddFrame(g.fabric.PortOfMember(ingress), g.fabric.PortOfMember(egress), snap, frameLen)
}

// pickClient draws a client AS and address. The client address space is
// the upper half of each prefix (the lower half belongs to servers and
// resolvers).
func (g *Generator) pickClient(rng *rand.Rand) (int32, packet.IPv4Addr) {
	as := g.clientASes[g.clientAlias.Sample(rng)]
	return as, g.clientIPIn(rng, as)
}

func (g *Generator) clientIPIn(rng *rand.Rand, as int32) packet.IPv4Addr {
	a := &g.w.ASes[as]
	pfx := &g.w.Prefixes[a.Prefixes[rng.Intn(len(a.Prefixes))]]
	size := pfx.Prefix.NumAddrs()
	half := size / 2
	pool := size - half - 5
	// Clients near the IXP are fewer but far chattier: their address
	// pool per prefix is smaller by the cube of the locality factor, so
	// the unique-IP ranking (Table 2, "All IPs": US first) decouples
	// from the traffic ranking (DE first).
	loc := localityFactor(a.Country)
	if loc > 1 {
		pool = uint64(float64(pool) / (loc * loc * loc))
		if pool < 8 {
			pool = 8
		}
	}
	off := half + 4 + uint64(rng.Int63n(int64(pool)))
	return pfx.Prefix.First() + packet.IPv4Addr(off)
}

// tcpFrame renders an Ethernet/IPv4/TCP frame between two fabric-facing
// MACs.
func (g *Generator) tcpFrame(rng *rand.Rand, ingress, egress int32,
	srcIP, dstIP packet.IPv4Addr, srcPort, dstPort uint16, payload []byte) []byte {
	eth := packet.Ethernet{
		Src:  g.fabric.MACOfMember(ingress),
		Dst:  g.fabric.MACOfMember(egress),
		VLAN: ixp.PeeringVLAN,
	}
	ip := packet.IPv4Header{
		TTL: uint8(48 + rng.Intn(17)), ID: uint16(rng.Intn(1 << 16)),
		Src: srcIP, Dst: dstIP,
	}
	tcp := packet.TCPHeader{
		SrcPort: srcPort, DstPort: dstPort,
		Seq: rng.Uint32(), Ack: rng.Uint32(),
		Flags: packet.TCPAck | packet.TCPPsh, Window: 65535,
	}
	return g.builder.BuildTCPv4(eth, ip, tcp, payload)
}

func (g *Generator) udpFrame(rng *rand.Rand, ingress, egress int32,
	srcIP, dstIP packet.IPv4Addr, srcPort, dstPort uint16, payload []byte) []byte {
	eth := packet.Ethernet{
		Src:  g.fabric.MACOfMember(ingress),
		Dst:  g.fabric.MACOfMember(egress),
		VLAN: ixp.PeeringVLAN,
	}
	ip := packet.IPv4Header{
		TTL: uint8(48 + rng.Intn(17)), ID: uint16(rng.Intn(1 << 16)),
		Src: srcIP, Dst: dstIP,
	}
	return g.builder.BuildUDPv4(eth, ip, packet.UDPHeader{SrcPort: srcPort, DstPort: dstPort}, payload)
}

// emitServerFlow produces one sampled frame of Web-server-related
// traffic: a request or response between a server and a client, or
// machine-to-machine traffic between servers.
func (g *Generator) emitServerFlow(rng *rand.Rand, isoWeek int, col *ixp.Collector,
	alias *randutil.Alias, servers []int32, sampled map[int32]Evidence, stats *WeekStats) error {
	si := servers[alias.Sample(rng)]
	s := &g.w.Servers[si]

	// Machine-to-machine: the server fetches from another server. The
	// paper's conclusion predicts this share keeps growing as servers
	// move closer to users; the generator encodes a mild upward trend.
	weekIdx0 := isoWeek - g.w.Cfg.FirstWeek
	m2mShare := 0.20 + 0.008*float64(weekIdx0)
	if s.Is(netmodel.SrvActsAsClient) && rng.Float64() < m2mShare {
		pi := servers[alias.Sample(rng)]
		p := &g.w.Servers[pi]
		if p.AS != s.AS {
			ingress, egress, ok := g.fabric.LinkFor(s.AS, p.AS, isoWeek)
			if !ok {
				stats.DroppedUnroutable++
				return nil
			}
			payload := g.httpRequest(rng, g.siteFor(rng, pi))
			frame := g.tcpFrame(rng, ingress, egress, s.IP, p.IP,
				ephemeralPort(rng), 80, payload)
			if err := g.emitFrame(col, ingress, egress, frame, len(frame)); err != nil {
				return err
			}
			// The fetching server shows only as a client here.
			sampled[si] = max(sampled[si], EvidenceOpaque)
			sampled[pi] = max(sampled[pi], g.snippetEvidence(frame, payload, false))
			stats.Samples++
			stats.PeeringSamples++
			stats.ServerSamples++
			stats.M2MSamples++
			stats.ServerBytes += uint64(len(frame)) * uint64(g.opts.SamplingRate)
			stats.OrgBytes[p.Org] += uint64(len(frame)) * uint64(g.opts.SamplingRate)
			stats.PeeringBytes += uint64(len(frame)) * uint64(g.opts.SamplingRate)
			return nil
		}
	}

	clientAS, clientIP := g.pickClient(rng)
	for tries := 0; clientAS == s.AS && tries < 4; tries++ {
		clientAS, clientIP = g.pickClient(rng)
	}

	// Protocol choice.
	weekIdx := isoWeek - g.w.Cfg.FirstWeek
	httpsShare := 0.24 * (1 + 0.045*float64(weekIdx))
	proto := protoHTTP
	switch {
	case s.Is(netmodel.SrvHTTPS) && rng.Float64() < httpsShare:
		proto = protoHTTPS
	case s.Is(netmodel.SrvRTMP) && rng.Float64() < 0.20:
		proto = protoRTMP
	}
	serverPort := uint16(80)
	switch proto {
	case protoHTTPS:
		serverPort = 443
	case protoRTMP:
		serverPort = 1935
	default:
		if rng.Float64() < 0.08 {
			serverPort = 8080
		}
	}

	response := rng.Float64() < 0.78
	var srcAS, dstAS int32
	var srcIP, dstIP packet.IPv4Addr
	var srcPort, dstPort uint16
	var payload []byte
	var frameLen int
	cPort := ephemeralPort(rng)

	if response {
		srcAS, dstAS = s.AS, clientAS
		srcIP, dstIP = s.IP, clientIP
		srcPort, dstPort = serverPort, cPort
		switch proto {
		case protoHTTPS:
			payload = tlsRecord(rng, g.scratch[:0], 900+rng.Intn(500))
			frameLen = 54 + len(payload) + rng.Intn(400)
		case protoRTMP:
			payload = binaryPayload(rng, g.scratch[:0], 120)
			frameLen = 1200 + rng.Intn(300)
		default:
			if rng.Float64() < 0.16 {
				payload = g.httpResponseHeader(rng, si)
			} else {
				payload = binaryPayload(rng, g.scratch[:0], 120)
			}
			frameLen = 1380 + rng.Intn(135)
		}
	} else {
		srcAS, dstAS = clientAS, s.AS
		srcIP, dstIP = clientIP, s.IP
		srcPort, dstPort = cPort, serverPort
		switch proto {
		case protoHTTPS:
			payload = tlsRecord(rng, g.scratch[:0], 80+rng.Intn(200))
			frameLen = 54 + len(payload)
		case protoRTMP:
			payload = binaryPayload(rng, g.scratch[:0], 64)
			frameLen = 54 + 64
		default:
			payload = g.httpRequest(rng, g.siteFor(rng, si))
			frameLen = 54 + len(payload)
		}
	}

	ingress, egress, ok := g.fabric.LinkFor(srcAS, dstAS, isoWeek)
	if !ok {
		stats.DroppedUnroutable++
		return nil
	}
	frame := g.tcpFrame(rng, ingress, egress, srcIP, dstIP, srcPort, dstPort, payload)
	if err := g.emitFrame(col, ingress, egress, frame, frameLen); err != nil {
		return err
	}
	sampled[si] = max(sampled[si], g.snippetEvidence(frame, payload, proto == protoHTTPS))
	stats.Samples++
	stats.PeeringSamples++
	stats.ServerSamples++
	if proto == protoHTTPS {
		stats.HTTPSSamples++
	}
	stats.ServerBytes += uint64(frameLen) * uint64(g.opts.SamplingRate)
	stats.OrgBytes[s.Org] += uint64(frameLen) * uint64(g.opts.SamplingRate)
	stats.PeeringBytes += uint64(frameLen) * uint64(g.opts.SamplingRate)
	return nil
}

// snippetEvidence grades one server-flow frame for its server endpoint
// from the bytes alone, drawing nothing from the generator's RNG: HTTP
// when the payload's part inside the snapped frame holds an HTTP
// message's first line up to its version (a request line sent to the
// server, "… HTTP/1.x"; a status line sent from it, "HTTP/1.x …") or a
// header field after a line break; else 443 for an exchange on the
// HTTPS port; else opaque.
func (g *Generator) snippetEvidence(frame, payload []byte, https bool) Evidence {
	visible := payload
	if n := g.opts.SnapLen - (len(frame) - len(payload)); n < len(visible) {
		visible = visible[:max(n, 0)]
	}
	switch {
	case bytes.HasPrefix(visible, httpVersion[1:]), bytes.Contains(visible, httpVersion):
		return EvidenceHTTP
	case headerAfterLineBreak(visible):
		return EvidenceHTTP
	case https:
		return Evidence443
	}
	return EvidenceOpaque
}

var httpVersion = []byte(" HTTP/1.")

// headerAfterLineBreak reports whether a "Name: " field opens a line of
// p, the line break included.
func headerAfterLineBreak(p []byte) bool {
	for {
		i := bytes.Index(p, []byte("\r\n"))
		if i < 0 {
			return false
		}
		p = p[i+2:]
		line := p
		if j := bytes.Index(line, []byte("\r\n")); j >= 0 {
			line = line[:j]
		}
		if k := bytes.Index(line, []byte(": ")); k > 0 {
			return true
		}
	}
}

type protoKind uint8

const (
	protoHTTP protoKind = iota
	protoHTTPS
	protoRTMP
)

// emitOtherPeering produces non-Web member-to-member traffic: P2P, DNS,
// mail, games — anything that the Web-server identification must not
// claim.
func (g *Generator) emitOtherPeering(rng *rand.Rand, isoWeek int, col *ixp.Collector, stats *WeekStats) error {
	aAS, aIP := g.pickClient(rng)
	bAS, bIP := g.pickClient(rng)
	for tries := 0; bAS == aAS && tries < 4; tries++ {
		bAS, bIP = g.pickClient(rng)
	}
	ingress, egress, ok := g.fabric.LinkFor(aAS, bAS, isoWeek)
	if !ok {
		stats.DroppedUnroutable++
		return nil
	}
	// A slice of the non-Web traffic is VPN/SSH tunneled over TCP 443
	// to endpoints that are not HTTPS web servers — the reason the
	// paper's crawl rejects most of its port-443 candidate set.
	if len(g.w.Fake443) > 0 && rng.Float64() < 0.10 {
		f := &g.w.Fake443[rng.Intn(len(g.w.Fake443))]
		if f.AS != aAS {
			if in2, out2, ok2 := g.fabric.LinkFor(aAS, f.AS, isoWeek); ok2 {
				payload := tlsRecord(rng, g.scratch[:0], 60+rng.Intn(400))
				frame := g.tcpFrame(rng, in2, out2, aIP, f.IP, ephemeralPort(rng), 443, payload)
				frameLen := 200 + rng.Intn(1200)
				if err := g.emitFrame(col, in2, out2, frame, frameLen); err != nil {
					return err
				}
				stats.Samples++
				stats.PeeringSamples++
				stats.PeeringBytes += uint64(frameLen) * uint64(g.opts.SamplingRate)
				return nil
			}
		}
	}
	var frame []byte
	var frameLen int
	if rng.Float64() < probOtherUDP {
		var sp, dp uint16
		switch rng.Intn(4) {
		case 0: // DNS
			sp, dp = ephemeralPort(rng), 53
		case 1: // QUIC-era media / games
			sp, dp = ephemeralPort(rng), uint16(27000+rng.Intn(1000))
		default: // P2P
			sp, dp = uint16(1024+rng.Intn(60000)), uint16(1024+rng.Intn(60000))
		}
		payload := binaryPayload(rng, g.scratch[:0], 90)
		frame = g.udpFrame(rng, ingress, egress, aIP, bIP, sp, dp, payload)
		// P2P data transfers dominate the UDP bytes: large frames.
		frameLen = 400 + rng.Intn(1100)
	} else {
		var dp uint16
		switch rng.Intn(5) {
		case 0:
			dp = 25 // SMTP
		case 1:
			dp = 993 // IMAPS
		case 2:
			dp = 22 // SSH
		default:
			dp = uint16(1024 + rng.Intn(60000)) // P2P over TCP
		}
		payload := binaryPayload(rng, g.scratch[:0], 100)
		frame = g.tcpFrame(rng, ingress, egress, aIP, bIP, ephemeralPort(rng), dp, payload)
		frameLen = 120 + rng.Intn(1300)
	}
	if err := g.emitFrame(col, ingress, egress, frame, frameLen); err != nil {
		return err
	}
	stats.Samples++
	stats.PeeringSamples++
	stats.PeeringBytes += uint64(frameLen) * uint64(g.opts.SamplingRate)
	return nil
}

// emitNonTCPUDP produces member-to-member IPv4 traffic that is neither
// TCP nor UDP (ICMP, GRE, ESP).
func (g *Generator) emitNonTCPUDP(rng *rand.Rand, isoWeek int, col *ixp.Collector, stats *WeekStats) error {
	aAS, aIP := g.pickClient(rng)
	bAS, bIP := g.pickClient(rng)
	ingress, egress, ok := g.fabric.LinkFor(aAS, bAS, isoWeek)
	if !ok {
		stats.DroppedUnroutable++
		return nil
	}
	eth := packet.Ethernet{
		Src:  g.fabric.MACOfMember(ingress),
		Dst:  g.fabric.MACOfMember(egress),
		VLAN: ixp.PeeringVLAN,
	}
	ip := packet.IPv4Header{TTL: 60, ID: uint16(rng.Intn(1 << 16)), Src: aIP, Dst: bIP}
	var frame []byte
	switch r := rng.Float64(); {
	case r < 0.6:
		frame = g.builder.BuildICMPv4(eth, ip, packet.ICMPHeader{Type: 8}, binaryPayload(rng, g.scratch[:0], 48))
	case r < 0.9:
		frame = g.builder.BuildIPv4Proto(eth, ip, packet.ProtoGRE, binaryPayload(rng, g.scratch[:0], 60))
	default:
		frame = g.builder.BuildIPv4Proto(eth, ip, packet.ProtoESP, binaryPayload(rng, g.scratch[:0], 60))
	}
	if err := g.emitFrame(col, ingress, egress, frame, len(frame)); err != nil {
		return err
	}
	stats.Samples++
	stats.NonTCPUDP++
	return nil
}

// emitNonIPv4 produces native IPv6 (mostly) and ARP noise.
func (g *Generator) emitNonIPv4(rng *rand.Rand, isoWeek int, col *ixp.Collector, stats *WeekStats) error {
	members := g.w.MemberASes(isoWeek)
	if len(members) < 2 {
		return nil
	}
	a := members[rng.Intn(len(members))]
	b := members[rng.Intn(len(members))]
	for tries := 0; b == a && tries < 4; tries++ {
		b = members[rng.Intn(len(members))]
	}
	eth := packet.Ethernet{
		Src:  g.fabric.MACOfMember(a),
		Dst:  g.fabric.MACOfMember(b),
		VLAN: ixp.PeeringVLAN,
	}
	var frame []byte
	if rng.Float64() < 0.85 {
		var src, dst packet.IPv6Addr
		src[0], src[1] = 0x20, 0x01
		dst[0], dst[1] = 0x20, 0x01
		rng.Read(src[8:])
		rng.Read(dst[8:])
		ip := packet.IPv6Header{HopLimit: 60, Src: src, Dst: dst}
		tcp := packet.TCPHeader{SrcPort: ephemeralPort(rng), DstPort: 80, Flags: packet.TCPAck}
		frame = g.builder.BuildTCPv6(eth, ip, tcp, binaryPayload(rng, g.scratch[:0], 64))
	} else {
		frame = g.builder.BuildARP(eth, packet.MakeIPv4(10, 99, 1, byte(rng.Intn(250))), packet.MakeIPv4(10, 99, 1, byte(rng.Intn(250))))
	}
	if err := g.emitFrame(col, a, b, frame, len(frame)); err != nil {
		return err
	}
	stats.Samples++
	stats.NonIPv4++
	return nil
}

// emitLocal produces IXP-internal traffic (management plane): it enters
// or leaves through an infrastructure port and must be filtered by the
// "member-to-member" check.
func (g *Generator) emitLocal(rng *rand.Rand, col *ixp.Collector, stats *WeekStats) error {
	eth := packet.Ethernet{
		Src:  packet.MAC{0x02, 0x49, 0x58, 0xff, 0xff, 0x01},
		Dst:  packet.MAC{0x02, 0x49, 0x58, 0xff, 0xff, 0x02},
		VLAN: ixp.PeeringVLAN,
	}
	ip := packet.IPv4Header{
		TTL: 64,
		Src: packet.MakeIPv4(10, 99, 2, byte(rng.Intn(250))),
		Dst: packet.MakeIPv4(10, 99, 2, byte(rng.Intn(250))),
	}
	frame := g.builder.BuildUDPv4(eth, ip, packet.UDPHeader{SrcPort: 161, DstPort: 162},
		binaryPayload(rng, g.scratch[:0], 60))
	snap := frame
	if len(snap) > g.opts.SnapLen {
		snap = snap[:g.opts.SnapLen]
	}
	if err := col.AddFrame(ixp.ManagementPort, ixp.ManagementPort, snap, len(frame)); err != nil {
		return err
	}
	stats.Samples++
	stats.Local++
	return nil
}

func ephemeralPort(rng *rand.Rand) uint16 {
	return uint16(32768 + rng.Intn(28000))
}
