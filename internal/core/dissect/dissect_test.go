package dissect

import (
	"context"
	"fmt"
	"testing"

	"ixplens/internal/dnssim"
	"ixplens/internal/ixp"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/sflow"
	"ixplens/internal/traffic"
)

// buildWeek generates one week of capture into memory.
func buildWeek(t testing.TB, week int) (*netmodel.World, *ixp.Fabric, *SliceSource, traffic.WeekStats) {
	t.Helper()
	w, err := netmodel.Generate(netmodel.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	fabric := ixp.NewFabric(w)
	gen := traffic.NewGenerator(w, dnssim.New(w), fabric, traffic.DefaultOptions())
	var src SliceSource
	col := ixp.NewCollector(fabric, 16384, func(d *sflow.Datagram) error {
		cp := *d
		cp.Flows = make([]sflow.FlowSample, len(d.Flows))
		for i := range d.Flows {
			cp.Flows[i] = d.Flows[i]
			hdr := make([]byte, len(d.Flows[i].Raw.Header))
			copy(hdr, d.Flows[i].Raw.Header)
			cp.Flows[i].Raw.Header = hdr
		}
		cp.Counters = append([]sflow.CounterSample(nil), d.Counters...)
		src.Datagrams = append(src.Datagrams, cp)
		return nil
	})
	stats, err := gen.GenerateWeek(week, col)
	if err != nil {
		t.Fatal(err)
	}
	return w, fabric, &src, stats
}

// serial runs the one driver's serial reference (workers=1) with a
// plain per-record observer.
func serial(src DatagramSource, members MemberResolver, fn func(*Record)) (Counts, error) {
	var obs ShardObserver
	if fn != nil {
		obs = func(_ int, rec *Record, _ uint64) { fn(rec) }
	}
	return ProcessSharded(context.Background(), src, members, 1, obs, nil)
}

func TestCascadeMatchesGenerator(t *testing.T) {
	_, fabric, src, stats := buildWeek(t, 45)
	counts, err := serial(src, fabric, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Total != stats.Samples {
		t.Fatalf("dissected %d samples, generator emitted %d", counts.Total, stats.Samples)
	}
	if counts.Undecodable != 0 {
		t.Fatalf("%d undecodable frames", counts.Undecodable)
	}
	if counts.NonIPv4 != stats.NonIPv4 {
		t.Fatalf("non-IPv4: dissect %d, truth %d", counts.NonIPv4, stats.NonIPv4)
	}
	if counts.Local != stats.Local {
		t.Fatalf("local: dissect %d, truth %d", counts.Local, stats.Local)
	}
	if counts.NonTCPUDP != stats.NonTCPUDP {
		t.Fatalf("non-TCP/UDP: dissect %d, truth %d", counts.NonTCPUDP, stats.NonTCPUDP)
	}
	if counts.Peering() != stats.PeeringSamples {
		t.Fatalf("peering: dissect %d, truth %d", counts.Peering(), stats.PeeringSamples)
	}
	// The paper: peering traffic >= 98.5% of the total.
	if counts.PeeringShare() < 0.975 {
		t.Fatalf("peering share %.4f below paper's 98.5%%", counts.PeeringShare())
	}
	// TCP share of peering bytes ~82%.
	if s := counts.TCPShare(); s < 0.70 || s > 0.92 {
		t.Fatalf("TCP byte share %.3f far from 82%%", s)
	}
}

func TestRecordsCarryMembersAndPayload(t *testing.T) {
	w, fabric, src, _ := buildWeek(t, 45)
	withPayload := 0
	_, err := serial(src, fabric, func(rec *Record) {
		if !rec.Class.IsPeering() {
			return
		}
		if rec.InMember < 0 || rec.OutMember < 0 {
			t.Fatal("peering record without member attribution")
		}
		if !w.ASes[rec.InMember].IsMemberInWeek(45) || !w.ASes[rec.OutMember].IsMemberInWeek(45) {
			t.Fatal("peering record attributed to non-member")
		}
		if rec.SrcIP == 0 || rec.DstIP == 0 {
			t.Fatal("peering record without addresses")
		}
		if rec.Bytes < uint64(rec.FrameLen) {
			t.Fatal("bytes not scaled by sampling rate")
		}
		if len(rec.Payload) > 0 {
			withPayload++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if withPayload == 0 {
		t.Fatal("no payloads survived dissection")
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassUndecodable: "undecodable",
		ClassNonIPv4:     "non-IPv4",
		ClassLocal:       "local/non-member",
		ClassNonTCPUDP:   "non-TCP/UDP",
		ClassPeeringTCP:  "peering-TCP",
		ClassPeeringUDP:  "peering-UDP",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if Class(99).String() == "" {
		t.Error("unknown class must fall back")
	}
	if ClassLocal.IsPeering() || !ClassPeeringUDP.IsPeering() {
		t.Error("IsPeering wrong")
	}
}

type fakeMembers struct{}

func (fakeMembers) MemberOfPort(port uint32) (int32, bool) {
	if port >= 1000 {
		return int32(port - 1000), true
	}
	return 0, false
}

func TestClassifyDirectCases(t *testing.T) {
	cls := NewClassifier(fakeMembers{})
	b := packet.NewBuilder(256)
	eth := packet.Ethernet{Src: packet.MAC{2}, Dst: packet.MAC{4}}
	ip := packet.IPv4Header{TTL: 60, Src: packet.MakeIPv4(1, 2, 3, 4), Dst: packet.MakeIPv4(5, 6, 7, 8)}

	mkSample := func(header []byte, in, out uint32) sflow.FlowSample {
		return sflow.FlowSample{
			SamplingRate: 1000, InputIf: in, OutputIf: out, HasRaw: true,
			Raw: sflow.RawPacketHeader{Protocol: sflow.HeaderProtoEthernet, FrameLength: uint32(len(header)), Header: header},
		}
	}

	var rec Record
	// TCP member-to-member.
	fr := b.BuildTCPv4(eth, ip, packet.TCPHeader{SrcPort: 80, DstPort: 5555}, []byte("HTTP/1.1 200 OK\r\n"))
	fs := mkSample(append([]byte(nil), fr...), 1001, 1002)
	if got := cls.Classify(&fs, &rec); got != ClassPeeringTCP {
		t.Fatalf("class = %v", got)
	}
	if rec.SrcPort != 80 || rec.InMember != 1 || rec.OutMember != 2 {
		t.Fatalf("record fields wrong: %+v", rec)
	}
	if rec.Bytes != uint64(len(fr))*1000 {
		t.Fatalf("bytes = %d", rec.Bytes)
	}

	// Same member on both ports -> local.
	fs = mkSample(append([]byte(nil), fr...), 1001, 1001)
	if got := cls.Classify(&fs, &rec); got != ClassLocal {
		t.Fatalf("same-member class = %v", got)
	}

	// Infrastructure port -> local.
	fs = mkSample(append([]byte(nil), fr...), 1, 1002)
	if got := cls.Classify(&fs, &rec); got != ClassLocal {
		t.Fatalf("infra-port class = %v", got)
	}

	// ICMP member-to-member -> non-TCP/UDP.
	fr = b.BuildICMPv4(eth, ip, packet.ICMPHeader{Type: 8}, nil)
	fs = mkSample(append([]byte(nil), fr...), 1001, 1002)
	if got := cls.Classify(&fs, &rec); got != ClassNonTCPUDP {
		t.Fatalf("ICMP class = %v", got)
	}

	// ARP -> non-IPv4.
	fr = b.BuildARP(eth, packet.MakeIPv4(10, 0, 0, 1), packet.MakeIPv4(10, 0, 0, 2))
	fs = mkSample(append([]byte(nil), fr...), 1001, 1002)
	if got := cls.Classify(&fs, &rec); got != ClassNonIPv4 {
		t.Fatalf("ARP class = %v", got)
	}

	// Garbage -> undecodable.
	fs = mkSample([]byte{1, 2, 3}, 1001, 1002)
	if got := cls.Classify(&fs, &rec); got != ClassUndecodable {
		t.Fatalf("garbage class = %v", got)
	}

	// Missing raw record -> undecodable.
	fs = sflow.FlowSample{SamplingRate: 1000, InputIf: 1001, OutputIf: 1002}
	if got := cls.Classify(&fs, &rec); got != ClassUndecodable {
		t.Fatalf("no-raw class = %v", got)
	}
}

func TestSliceSourceReset(t *testing.T) {
	src := &SliceSource{Datagrams: make([]sflow.Datagram, 3)}
	var d sflow.Datagram
	n := 0
	for src.Next(&d) == nil {
		n++
	}
	if n != 3 {
		t.Fatalf("first pass read %d", n)
	}
	src.Reset()
	n = 0
	for src.Next(&d) == nil {
		n++
	}
	if n != 3 {
		t.Fatalf("second pass read %d", n)
	}
}

func BenchmarkClassify(b *testing.B) {
	cls := NewClassifier(fakeMembers{})
	bd := packet.NewBuilder(256)
	eth := packet.Ethernet{Src: packet.MAC{2}, Dst: packet.MAC{4}}
	ip := packet.IPv4Header{TTL: 60, Src: packet.MakeIPv4(1, 2, 3, 4), Dst: packet.MakeIPv4(5, 6, 7, 8)}
	fr := bd.BuildTCPv4(eth, ip, packet.TCPHeader{SrcPort: 80, DstPort: 5555}, []byte("HTTP/1.1 200 OK\r\nServer: nginx\r\n"))
	fs := sflow.FlowSample{
		SamplingRate: 16384, InputIf: 1001, OutputIf: 1002, HasRaw: true,
		Raw: sflow.RawPacketHeader{Protocol: sflow.HeaderProtoEthernet, FrameLength: 1400, Header: fr},
	}
	var rec Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.Classify(&fs, &rec)
	}
}

type failingSource struct{ n int }

func (f *failingSource) Next(d *sflow.Datagram) error {
	f.n++
	if f.n > 2 {
		return fmt.Errorf("transport broke")
	}
	*d = sflow.Datagram{}
	return nil
}

func TestProcessPropagatesSourceError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		counts, err := ProcessSharded(context.Background(), &failingSource{}, fakeMembers{}, workers, nil, nil)
		if err == nil {
			t.Fatalf("workers=%d: source error swallowed", workers)
		}
		if counts.Total != 0 {
			t.Fatalf("workers=%d: counted %d samples from empty datagrams", workers, counts.Total)
		}
	}
}
