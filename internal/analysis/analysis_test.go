package analysis

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ixplens/internal/certsim"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/hetero"
	"ixplens/internal/core/visibility"
	"ixplens/internal/core/webserver"
	"ixplens/internal/entity"
	"ixplens/internal/packet"
)

// syntheticRecords builds a deterministic mixed stream: peering TCP/UDP
// flows over a handful of endpoints and member ports, interleaved with
// cascade rejects the analyzers must ignore.
func syntheticRecords() []dissect.Record {
	var recs []dissect.Record
	state := uint64(42)
	next := func(n uint64) uint64 { // xorshift, deterministic
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state % n
	}
	ips := []packet.IPv4Addr{
		packet.MakeIPv4(10, 0, 0, 1), packet.MakeIPv4(10, 0, 0, 2),
		packet.MakeIPv4(10, 0, 0, 3), packet.MakeIPv4(172, 16, 0, 9),
		packet.MakeIPv4(192, 168, 7, 7),
	}
	for i := 0; i < 400; i++ {
		rec := dissect.Record{
			Class:     dissect.ClassPeeringTCP,
			SrcIP:     ips[next(uint64(len(ips)))],
			DstIP:     ips[next(uint64(len(ips)))],
			InMember:  int32(next(4)),
			OutMember: int32(next(4)) - 1, // includes -1 (non-member port)
			Bytes:     512 * (next(64) + 1),
		}
		switch i % 7 {
		case 3:
			rec.Class = dissect.ClassPeeringUDP
		case 5:
			rec.Class = dissect.ClassLocal // must be ignored
		case 6:
			rec.Class = dissect.ClassNonIPv4 // must be ignored
		}
		recs = append(recs, rec)
	}
	return recs
}

func testContext() *Context {
	return &Context{Entities: entity.NewTable(nil, nil)}
}

func TestSelect(t *testing.T) {
	for _, list := range []string{"", "all", " all "} {
		reg, err := Select(list)
		if err != nil {
			t.Fatalf("Select(%q): %v", list, err)
		}
		want := []string{NameLinks, NameVisibility, NameWebserver}
		if !reflect.DeepEqual(reg.Names(), want) {
			t.Fatalf("Select(%q) = %v, want %v", list, reg.Names(), want)
		}
	}
	// Narrowing always keeps the webserver analyzer: churn tracking and
	// the snapshot layer require its product.
	reg, err := Select("links")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{NameLinks, NameWebserver}; !reflect.DeepEqual(reg.Names(), want) {
		t.Fatalf("Select(links) = %v, want %v", reg.Names(), want)
	}
	reg, err = Select(" visibility , links ")
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 3 {
		t.Fatalf("Select(visibility,links) kept %d analyzers, want 3", reg.Len())
	}
	if _, err := Select("webserver,nosuch"); !errors.Is(err, ErrUnknownAnalyzer) {
		t.Fatalf("unknown analyzer error = %v, want ErrUnknownAnalyzer", err)
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	if _, err := NewRegistry(Links(), Webserver(), Links()); err == nil {
		t.Fatal("duplicate analyzer accepted")
	}
}

// TestFusedMatchesSerial pins partition independence: the same records
// scattered over 4 worker shards must finish into byte-identical
// products as a single-worker serial run.
func TestFusedMatchesSerial(t *testing.T) {
	reg, err := NewRegistry(Visibility(), Links())
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords()

	serial := reg.NewRun(testContext(), 1)
	for i := range recs {
		serial.Observe(0, &recs[i], uint64(i))
	}
	want, err := serial.Finish(45)
	if err != nil {
		t.Fatal(err)
	}

	sharded := reg.NewRun(testContext(), 4)
	for i := range recs {
		sharded.Observe((i*7+3)%4, &recs[i], uint64(i))
	}
	got, err := sharded.Finish(45)
	if err != nil {
		t.Fatal(err)
	}

	for _, np := range want.All() {
		a, err := np.P.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Get(np.Name).AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: sharded product differs from serial", np.Name)
		}
	}
}

// TestProductRoundTrips pins every analyzer codec: encode → Decode →
// re-encode must reproduce the bytes, and a wrong section version must
// fail with ErrVersion.
func TestProductRoundTrips(t *testing.T) {
	reg, err := NewRegistry(Visibility(), Links())
	if err != nil {
		t.Fatal(err)
	}
	run := reg.NewRun(testContext(), 2)
	recs := syntheticRecords()
	for i := range recs {
		run.Observe(i%2, &recs[i], uint64(i))
	}
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	if prods.Visibility().ObservedIPs() == 0 || len(prods.Links().Flows) == 0 {
		t.Fatal("synthetic stream produced empty products")
	}
	for _, np := range prods.All() {
		a, ok := reg.Lookup(np.Name)
		if !ok {
			t.Fatalf("product %q has no analyzer", np.Name)
		}
		buf, err := np.P.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := a.Decode(np.Version, buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", np.Name, err)
		}
		buf2, err := back.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("%s: decode/re-encode drifted", np.Name)
		}
		if _, err := a.Decode(np.Version+9, buf); !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: future version error = %v, want ErrVersion", np.Name, err)
		}
		if len(buf) > 0 {
			if _, err := a.Decode(np.Version, buf[:len(buf)-1]); !errors.Is(err, ErrFormat) {
				t.Fatalf("%s: truncated payload error = %v, want ErrFormat", np.Name, err)
			}
		}
	}
}

func TestWebserverProductRoundTrip(t *testing.T) {
	res := &webserver.Result{
		Week:          45,
		Servers:       map[packet.IPv4Addr]*webserver.Server{},
		Candidates443: 7, Responded443: 6, Valid443: 5,
		TotalIPs: 1234, ServerBytes: 1 << 40, EstLoss: 0.0321,
	}
	res.Servers[packet.MakeIPv4(10, 0, 0, 1)] = &webserver.Server{
		IP: packet.MakeIPv4(10, 0, 0, 1), HTTP: true, Bytes: 99,
		Ports: []uint16{80, 443}, Hosts: []string{"a.example"},
		AlsoClient: true, Member: 17,
	}
	res.Servers[packet.MakeIPv4(10, 0, 0, 2)] = &webserver.Server{
		IP: packet.MakeIPv4(10, 0, 0, 2), HTTPS: true, Member: -1,
		Cert: certsim.Info{Subject: "shop.example", AltNames: []string{"cdn.example"}},
	}
	p := &WebserverProduct{Res: res}
	buf, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Webserver().Decode(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.(*WebserverProduct).Res, res) {
		t.Fatal("webserver product round trip diverged")
	}
	buf2, err := back.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("webserver re-encode drifted")
	}
}

// TestLinkStatsReplayEquivalence pins the property the fused pass leans
// on: replaying the aggregated flow product through ObserveFlow yields
// the same attribution as the legacy per-record second pass, for any
// server predicate.
func TestLinkStatsReplayEquivalence(t *testing.T) {
	recs := syntheticRecords()
	servers := map[packet.IPv4Addr]bool{
		packet.MakeIPv4(10, 0, 0, 1):   true,
		packet.MakeIPv4(172, 16, 0, 9): true,
	}
	isServer := func(ip packet.IPv4Addr) bool { return servers[ip] }
	const home = 2

	direct := hetero.NewLinkStats(home)
	for i := range recs {
		direct.Observe(&recs[i], isServer)
	}

	reg, err := NewRegistry(Links())
	if err != nil {
		t.Fatal(err)
	}
	run := reg.NewRun(testContext(), 3)
	for i := range recs {
		run.Observe(i%3, &recs[i], uint64(i))
	}
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	replayed := prods.Links().LinkStats(home, nil, isServer)

	if direct.TotalBytes != replayed.TotalBytes || direct.DirectBytes != replayed.DirectBytes {
		t.Fatalf("totals diverged: direct %d/%d, replayed %d/%d",
			direct.DirectBytes, direct.TotalBytes, replayed.DirectBytes, replayed.TotalBytes)
	}
	if !reflect.DeepEqual(direct.PerMember, replayed.PerMember) {
		t.Fatal("per-member attribution diverged")
	}
	if direct.NumDirectServers() != replayed.NumDirectServers() ||
		direct.ServersOnlyOffLink() != replayed.ServersOnlyOffLink() {
		t.Fatal("server partition diverged")
	}
	if !reflect.DeepEqual(direct.Points(), replayed.Points()) {
		t.Fatal("Fig. 7 points diverged")
	}
}

// TestVisibilityAggregatorRebuild pins that an aggregator rebuilt from
// the persisted product sees exactly what a live pass saw.
func TestVisibilityAggregatorRebuild(t *testing.T) {
	recs := syntheticRecords()
	table := entity.NewTable(nil, nil)
	live := visibility.NewAggregatorWith(table)
	for i := range recs {
		live.Observe(&recs[i])
	}

	reg, err := NewRegistry(Visibility())
	if err != nil {
		t.Fatal(err)
	}
	run := reg.NewRun(&Context{Entities: entity.NewTable(nil, nil)}, 2)
	for i := range recs {
		run.Observe(i%2, &recs[i], uint64(i))
	}
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := prods.Visibility().Aggregator(entity.NewTable(nil, nil))

	if !reflect.DeepEqual(live.PerIP(), rebuilt.PerIP()) {
		t.Fatal("rebuilt aggregator diverged from live pass")
	}
	if live.NumObservedIPs() != rebuilt.NumObservedIPs() {
		t.Fatal("observed IP counts diverged")
	}
	if got, want := prods.Visibility().TotalBytes(), sumBytes(live.PerIP()); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
}

func sumBytes(per []visibility.IPTraffic) uint64 {
	var sum uint64
	for i := range per {
		sum += per[i].Bytes
	}
	return sum
}

// TestNilCrawlerMeansNoCrawl pins that the optional crawler may be left
// out: a port-443 candidate is still counted, but nothing is crawled,
// so none responds or validates.
func TestNilCrawlerMeansNoCrawl(t *testing.T) {
	run := Default().NewRun(&Context{Entities: entity.NewTable(nil, nil)}, 1)
	rec := dissect.Record{
		Class: dissect.ClassPeeringTCP,
		SrcIP: packet.MakeIPv4(10, 0, 0, 1), DstIP: packet.MakeIPv4(10, 0, 0, 2),
		SrcPort: 50000, DstPort: 443, Bytes: 1500 * 16384,
		Payload: []byte{0x16, 0x03, 0x01},
	}
	run.Observe(0, &rec, 0)
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	res := prods.Webserver()
	if res.Candidates443 != 1 || res.Responded443 != 0 || res.Valid443 != 0 || len(res.Servers) != 0 {
		t.Fatalf("funnel %d → %d → %d with %d servers, want 1 → 0 → 0 with none",
			res.Candidates443, res.Responded443, res.Valid443, len(res.Servers))
	}
}

// TestRunObserveIgnoresNonPeering pins that a cascade reject reaches
// no analyzer: it is dropped before any resolve, so it neither interns
// its endpoints nor creates per-IP state.
func TestRunObserveIgnoresNonPeering(t *testing.T) {
	actx := testContext()
	run := Default().NewRun(actx, 1)
	rec := dissect.Record{Class: dissect.ClassLocal, SrcIP: packet.MakeIPv4(1, 2, 3, 4), DstIP: packet.MakeIPv4(5, 6, 7, 8)}
	run.Observe(0, &rec, 0)
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	if n := actx.Entities.Len(); n != 0 {
		t.Fatalf("non-peering record interned %d IPs", n)
	}
	if res := prods.Webserver(); res.TotalIPs != 0 {
		t.Fatalf("non-peering record created state for %d IPs", res.TotalIPs)
	}
}

// BenchmarkRunObserve measures the fused observe of the default
// registry on one worker: a synthetic week of ~66K peering records over
// an entity table warmed with ~90K IPs, as a mined week meets it.
func BenchmarkRunObserve(b *testing.B) {
	state := uint64(11)
	next := func(n uint64) uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state % n
	}
	const clients, servers = 1 << 16, 24 << 10
	ctx := testContext()
	for i := 0; i < clients; i++ {
		ctx.Entities.Resolve(packet.IPv4Addr(0x0a000000 + i))
	}
	for i := 0; i < servers; i++ {
		ctx.Entities.Resolve(packet.IPv4Addr(0x50000000 + i))
	}
	payloads := [][]byte{
		[]byte("GET /index.html HTTP/1.1\r\nHost: www.example.org\r\nAccept: */*\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nServer: synth\r\nContent-Type: text/html\r\n"),
		[]byte("ge: 3600\r\nContent-Length: 1024\r\n\r\n"),
		{0x17, 0x03, 0x03, 0x01, 0x00, 0x8a, 0x91, 0x5c, 0x22, 0x07},
	}
	recs := make([]dissect.Record, 66000)
	for i := range recs {
		kind := next(uint64(len(payloads)))
		rec := dissect.Record{
			Class:     dissect.ClassPeeringTCP,
			SrcIP:     packet.IPv4Addr(0x0a000000 | next(clients)),
			DstIP:     packet.IPv4Addr(0x50000000 | next(servers)),
			SrcPort:   uint16(1024 + next(60000)),
			DstPort:   []uint16{80, 443, 8080}[next(3)],
			InMember:  int32(next(30)),
			OutMember: int32(next(31)) - 1,
			Bytes:     (64 + next(1400)) * 16384,
			Payload:   payloads[kind],
		}
		if kind == 1 { // a response travels from the server
			rec.SrcIP, rec.DstIP = rec.DstIP, rec.SrcIP
			rec.SrcPort, rec.DstPort = rec.DstPort, rec.SrcPort
		}
		recs[i] = rec
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := Default().NewRun(ctx, 1)
		for j := range recs {
			run.Observe(0, &recs[j], uint64(j))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/sample")
}
