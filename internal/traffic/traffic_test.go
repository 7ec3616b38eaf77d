package traffic

import (
	"bytes"
	"strings"
	"testing"

	"ixplens/internal/dnssim"
	"ixplens/internal/ixp"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/sflow"
)

type capture struct {
	datagrams []sflow.Datagram
}

func (c *capture) sink(d *sflow.Datagram) error {
	cp := *d
	cp.Flows = make([]sflow.FlowSample, len(d.Flows))
	for i := range d.Flows {
		cp.Flows[i] = d.Flows[i]
		hdr := make([]byte, len(d.Flows[i].Raw.Header))
		copy(hdr, d.Flows[i].Raw.Header)
		cp.Flows[i].Raw.Header = hdr
	}
	cp.Counters = append([]sflow.CounterSample(nil), d.Counters...)
	c.datagrams = append(c.datagrams, cp)
	return nil
}

func genWeek(t testing.TB, week int) (*netmodel.World, *ixp.Fabric, *capture, WeekStats) {
	t.Helper()
	w, err := netmodel.Generate(netmodel.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dns := dnssim.New(w)
	fabric := ixp.NewFabric(w)
	gen := NewGenerator(w, dns, fabric, DefaultOptions())
	cap := &capture{}
	col := ixp.NewCollector(fabric, DefaultOptions().SamplingRate, cap.sink)
	stats, err := gen.GenerateWeek(week, col)
	if err != nil {
		t.Fatal(err)
	}
	return w, fabric, cap, stats
}

func TestGenerateWeekMix(t *testing.T) {
	_, _, cap, stats := genWeek(t, 45)
	if stats.Samples < DefaultOptions().SamplesPerWeek/2 {
		t.Fatalf("only %d samples emitted", stats.Samples)
	}
	total := 0
	for i := range cap.datagrams {
		total += len(cap.datagrams[i].Flows)
	}
	if total != stats.Samples {
		t.Fatalf("collector saw %d samples, stats claim %d", total, stats.Samples)
	}
	// Mix sanity: tiny shares for the noise categories, server-related
	// dominating the peering portion.
	fr := func(n int) float64 { return float64(n) / float64(stats.Samples) }
	if fr(stats.NonIPv4) > 0.02 || fr(stats.Local) > 0.03 || fr(stats.NonTCPUDP) > 0.02 {
		t.Fatalf("noise categories too large: %+v", stats)
	}
	serverShare := float64(stats.ServerSamples) / float64(stats.PeeringSamples)
	if serverShare < 0.6 || serverShare > 0.9 {
		t.Fatalf("server-related share %.2f out of band", serverShare)
	}
	if stats.HTTPSSamples == 0 {
		t.Fatal("no HTTPS samples")
	}
	if stats.SampledServers < 100 {
		t.Fatalf("only %d distinct servers sampled", stats.SampledServers)
	}
}

func TestGenerateWeekOutsideWindow(t *testing.T) {
	w, err := netmodel.Generate(netmodel.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(w, dnssim.New(w), ixp.NewFabric(w), DefaultOptions())
	col := ixp.NewCollector(ixp.NewFabric(w), 16384, func(*sflow.Datagram) error { return nil })
	if _, err := gen.GenerateWeek(99, col); err == nil {
		t.Fatal("week outside window must fail")
	}
}

func TestFramesDecode(t *testing.T) {
	w, fabric, cap, _ := genWeek(t, 45)
	var f packet.Frame
	decoded, ipv4, ipv6, withVLAN := 0, 0, 0, 0
	for _, d := range cap.datagrams {
		for _, fs := range d.Flows {
			if !fs.HasRaw {
				t.Fatal("flow sample without raw header")
			}
			if len(fs.Raw.Header) > 128 {
				t.Fatalf("header %d bytes exceeds snap length", len(fs.Raw.Header))
			}
			if fs.Raw.FrameLength < uint32(len(fs.Raw.Header)) {
				t.Fatal("frame length below captured bytes")
			}
			if err := packet.Decode(fs.Raw.Header, &f); err != nil {
				t.Fatalf("sampled frame undecodable: %v", err)
			}
			decoded++
			if f.IsIPv4 {
				ipv4++
			}
			if f.IsIPv6 {
				ipv6++
			}
			if f.Eth.VLAN == uint16(ixp.PeeringVLAN) {
				withVLAN++
			}
		}
	}
	if decoded == 0 || ipv4 < decoded*9/10 || ipv6 == 0 {
		t.Fatalf("decode mix wrong: %d decoded, %d v4, %d v6", decoded, ipv4, ipv6)
	}
	if withVLAN < decoded*9/10 {
		t.Fatalf("VLAN tag missing on most frames: %d of %d", withVLAN, decoded)
	}
	_ = w
	_ = fabric
}

func TestHTTPPayloadsPresent(t *testing.T) {
	_, _, cap, _ := genWeek(t, 45)
	var f packet.Frame
	reqs, resps, hosts, tls := 0, 0, 0, 0
	for _, d := range cap.datagrams {
		for _, fs := range d.Flows {
			if packet.Decode(fs.Raw.Header, &f) != nil || f.Transport != packet.TransportTCP {
				continue
			}
			p := string(f.Payload)
			if strings.HasPrefix(p, "GET ") || strings.HasPrefix(p, "POST ") || strings.HasPrefix(p, "HEAD ") {
				reqs++
				if strings.Contains(p, "Host: ") {
					hosts++
				}
			}
			if strings.HasPrefix(p, "HTTP/1.1 ") {
				resps++
			}
			if len(f.Payload) > 3 && f.Payload[0] == 0x17 && f.Payload[1] == 0x03 {
				tls++
			}
		}
	}
	if reqs == 0 || resps == 0 || tls == 0 {
		t.Fatalf("payload mix degenerate: %d reqs, %d resps, %d tls", reqs, resps, tls)
	}
	if hosts < reqs*9/10 {
		t.Fatalf("requests without Host header: %d of %d", reqs-hosts, reqs)
	}
}

func TestPortsAreMemberPorts(t *testing.T) {
	w, fabric, cap, _ := genWeek(t, 45)
	nonMember := 0
	total := 0
	for _, d := range cap.datagrams {
		for _, fs := range d.Flows {
			total++
			_, inOK := fabric.MemberOfPort(fs.InputIf)
			_, outOK := fabric.MemberOfPort(fs.OutputIf)
			if !inOK || !outOK {
				nonMember++
			}
		}
	}
	// Only the local/management category (~0.6%) may use non-member ports.
	if nonMember == 0 {
		t.Fatal("expected some local traffic on infrastructure ports")
	}
	if float64(nonMember)/float64(total) > 0.03 {
		t.Fatalf("too much non-member traffic: %d of %d", nonMember, total)
	}
	_ = w
}

func TestServerTrafficUsesGroundTruthIPs(t *testing.T) {
	w, _, cap, _ := genWeek(t, 45)
	var f packet.Frame
	serverSide := 0
	for _, d := range cap.datagrams {
		for _, fs := range d.Flows {
			if packet.Decode(fs.Raw.Header, &f) != nil || !f.IsIPv4 || f.Transport != packet.TransportTCP {
				continue
			}
			if !bytes.HasPrefix(f.Payload, []byte("HTTP/1.1")) {
				continue
			}
			// Response: source must be a known, visible, active server.
			idx, ok := w.ServerByIP(f.IPv4.Src)
			if !ok {
				t.Fatalf("response from unknown IP %v", f.IPv4.Src)
			}
			s := &w.Servers[idx]
			if !s.VisibleAtIXP() {
				t.Fatalf("response from invisible server %v", f.IPv4.Src)
			}
			if !w.ServerActiveInWeek(idx, 45) {
				t.Fatalf("response from inactive server %v", f.IPv4.Src)
			}
			serverSide++
		}
	}
	if serverSide == 0 {
		t.Fatal("no response headers found")
	}
}

func TestVolumeGrowsAcrossWeeks(t *testing.T) {
	w, err := netmodel.Generate(netmodel.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dns := dnssim.New(w)
	fabric := ixp.NewFabric(w)
	gen := NewGenerator(w, dns, fabric, Options{SamplesPerWeek: 5000, SamplingRate: 16384, SnapLen: 128})
	drop := func(*sflow.Datagram) error { return nil }
	first, err := gen.GenerateWeek(w.Cfg.FirstWeek, ixp.NewCollector(fabric, 16384, drop))
	if err != nil {
		t.Fatal(err)
	}
	last, err := gen.GenerateWeek(w.Cfg.LastWeek(), ixp.NewCollector(fabric, 16384, drop))
	if err != nil {
		t.Fatal(err)
	}
	growth := float64(last.Samples) / float64(first.Samples)
	if growth < 1.1 || growth > 1.4 {
		t.Fatalf("volume growth %.2f, want ~14.5/11.9", growth)
	}
}

func TestHTTPSShareGrows(t *testing.T) {
	w, err := netmodel.Generate(netmodel.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(w, dnssim.New(w), ixp.NewFabric(w), Options{SamplesPerWeek: 20000, SamplingRate: 16384, SnapLen: 128})
	drop := func(*sflow.Datagram) error { return nil }
	fabric := ixp.NewFabric(w)
	first, err := gen.GenerateWeek(w.Cfg.FirstWeek, ixp.NewCollector(fabric, 16384, drop))
	if err != nil {
		t.Fatal(err)
	}
	last, err := gen.GenerateWeek(w.Cfg.LastWeek(), ixp.NewCollector(fabric, 16384, drop))
	if err != nil {
		t.Fatal(err)
	}
	s1 := float64(first.HTTPSSamples) / float64(first.ServerSamples)
	s2 := float64(last.HTTPSSamples) / float64(last.ServerSamples)
	if s2 <= s1 {
		t.Fatalf("HTTPS share did not grow: %.3f -> %.3f", s1, s2)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	_, _, cap1, st1 := genWeek(t, 40)
	_, _, cap2, st2 := genWeek(t, 40)
	if st1 != st2 {
		t.Fatalf("stats differ between identical runs:\n%+v\n%+v", st1, st2)
	}
	if len(cap1.datagrams) != len(cap2.datagrams) {
		t.Fatal("datagram counts differ")
	}
	a := cap1.datagrams[3].AppendEncode(nil)
	b := cap2.datagrams[3].AppendEncode(nil)
	if !bytes.Equal(a, b) {
		t.Fatal("datagram bytes differ between identical runs")
	}
}

func BenchmarkGenerateWeek(b *testing.B) {
	w, err := netmodel.Generate(netmodel.Tiny())
	if err != nil {
		b.Fatal(err)
	}
	dns := dnssim.New(w)
	fabric := ixp.NewFabric(w)
	gen := NewGenerator(w, dns, fabric, Options{SamplesPerWeek: 10000, SamplingRate: 16384, SnapLen: 128})
	drop := func(*sflow.Datagram) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := ixp.NewCollector(fabric, 16384, drop)
		if _, err := gen.GenerateWeek(45, col); err != nil {
			b.Fatal(err)
		}
	}
}
