package analysis

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"ixplens/internal/certsim"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/visibility"
	"ixplens/internal/core/webserver"
	"ixplens/internal/packet"
)

// mapLinks is the reference aggregation the links state replaced: one
// map entry per flow key, merged across shards, then sorted by
// (Src, Dst, In, Out) with the members compared as signed integers.
func mapLinks(shards [][]dissect.Record) *LinksProduct {
	merged := make(map[FlowKey]*Flow)
	for _, recs := range shards {
		for i := range recs {
			rec := &recs[i]
			if !rec.Class.IsPeering() {
				continue
			}
			k := FlowKey{Src: rec.SrcIP, Dst: rec.DstIP, In: rec.InMember, Out: rec.OutMember}
			f := merged[k]
			if f == nil {
				f = &Flow{FlowKey: k}
				merged[k] = f
			}
			f.Bytes += rec.Bytes
			f.Samples++
		}
	}
	flows := make([]Flow, 0, len(merged))
	for _, f := range merged {
		flows = append(flows, *f)
	}
	sort.Slice(flows, func(i, j int) bool {
		a, b := &flows[i].FlowKey, &flows[j].FlowKey
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.In != b.In {
			return a.In < b.In
		}
		return a.Out < b.Out
	})
	return &LinksProduct{Flows: flows}
}

// linksOf runs the links analyzer over the shards, shard i observed by
// worker i.
func linksOf(t testing.TB, shards [][]dissect.Record) *LinksProduct {
	reg, err := NewRegistry(Links())
	if err != nil {
		t.Fatal(err)
	}
	run := reg.NewRun(testContext(), len(shards))
	for w, recs := range shards {
		for i := range recs {
			run.Observe(w, &recs[i], uint64(i))
		}
	}
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	return prods.Links()
}

func encode(t testing.TB, p Product) []byte {
	b, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// split deals the records over n shards round-robin.
func split(recs []dissect.Record, n int) [][]dissect.Record {
	shards := make([][]dissect.Record, n)
	for i := range recs {
		shards[i%n] = append(shards[i%n], recs[i])
	}
	return shards
}

// TestLinksStateMatchesMapOracle pins the sort-based links aggregation
// byte-identical to the map-based reference, at 1 and 4 workers.
func TestLinksStateMatchesMapOracle(t *testing.T) {
	peer := func(src, dst packet.IPv4Addr, in, out int32, b uint64) dissect.Record {
		return dissect.Record{Class: dissect.ClassPeeringTCP, SrcIP: src, DstIP: dst, InMember: in, OutMember: out, Bytes: b}
	}

	cases := map[string][]dissect.Record{
		"empty week": nil,
		"no peering": {{Class: dissect.ClassLocal, SrcIP: 1, DstIP: 2, Bytes: 9}},
		"synthetic":  syntheticRecords(),
	}

	// Random records over small pools, so keys repeat within and
	// across shards.
	state := uint64(7)
	next := func(n uint64) uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state % n
	}
	var random []dissect.Record
	for i := 0; i < 5000; i++ {
		random = append(random, peer(
			packet.IPv4Addr(next(40)*0x01010101),
			packet.IPv4Addr(next(40)<<20|next(3)),
			int32(next(6))-1, int32(next(6))-1,
			next(1<<20)))
	}
	cases["random"] = random

	// Negative members: the -1 sentinel and values decoded from a u32.
	var negative []dissect.Record
	members := []int32{-1, math.MinInt32, math.MaxInt32, int32(-0x100), 0, 1, -2, 0x7fff, 0x8000, -0x8000, -0x8001}
	for i, in := range members {
		for j, out := range members {
			negative = append(negative, peer(10, 20, in, out, uint64(i*len(members)+j)))
		}
	}
	cases["negative members"] = append(negative, negative...)

	// One varying 16-bit digit per case: a radix pass skipped or run on
	// the wrong digit leaves these unsorted. Values are fed out of order.
	digits := []uint32{0xffff, 0, 0x8000, 1, 0x7fff, 0x00ff, 0xff00}
	fields := []struct {
		name string
		set  func(r *dissect.Record, v uint32)
	}{
		{"Src", func(r *dissect.Record, v uint32) { r.SrcIP ^= packet.IPv4Addr(v) }},
		{"Dst", func(r *dissect.Record, v uint32) { r.DstIP ^= packet.IPv4Addr(v) }},
		{"In", func(r *dissect.Record, v uint32) { r.InMember ^= int32(v) }},
		{"Out", func(r *dissect.Record, v uint32) { r.OutMember ^= int32(v) }},
	}
	for _, f := range fields {
		for _, shift := range []uint{0, 16} {
			var recs []dissect.Record
			for i, v := range digits {
				r := peer(0x0a000001, 0xac100009, 3, -1, uint64(i+1))
				f.set(&r, v<<shift)
				recs = append(recs, r, r)
			}
			cases[fmt.Sprintf("%s bits %d-%d", f.name, shift, shift+15)] = recs
		}
	}

	for name, recs := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				shards := split(recs, workers)
				want := encode(t, mapLinks(shards))
				if got := encode(t, linksOf(t, shards)); !bytes.Equal(got, want) {
					t.Fatalf("links product differs from the map reference:\n got %x\nwant %x", got, want)
				}
			})
		}
	}
}

// TestDecodeRejectsForgedCount pins that a count the payload cannot
// hold is rejected, whether the payload is short or long.
func TestDecodeRejectsForgedCount(t *testing.T) {
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		entry  int
	}{
		{NameLinks, func(b []byte) error { _, err := DecodeLinks(1, b); return err }, 32},
		{NameVisibility, func(b []byte) error { _, err := DecodeVisibility(1, b); return err }, 12},
	} {
		for _, n := range []uint32{1, 2, math.MaxUint32} {
			for _, have := range []int{0, tc.entry - 1, tc.entry + 1, 2 * tc.entry} {
				if uint64(have) == uint64(n)*uint64(tc.entry) {
					continue
				}
				payload := append([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}, make([]byte, have)...)
				if err := tc.decode(payload); !errors.Is(err, ErrFormat) {
					t.Errorf("%s: count %d with %d entry bytes: err = %v, want ErrFormat", tc.name, n, have, err)
				}
			}
		}

		// A count of one entry per payload byte must be rejected before
		// the entries are allocated: 1 MiB may not cost 12–32 MiB.
		const n = 1 << 20
		payload := append([]byte{0, 0x10, 0, 0}, make([]byte, n)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: count %d in %d bytes: err = %v, want ErrFormat", tc.name, n, n, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > n/16 {
			t.Errorf("%s: rejecting a forged count allocated %d bytes", tc.name, alloc)
		}
	}
}

// TestDecodeResultRejectsForgedCount is the webserver result's case: a
// server count the payload cannot hold fails before the server map is
// sized, and records that would decode into a different (smaller)
// result — repeated IPs, unknown flag bits — are rejected, not merged.
func TestDecodeResultRejectsForgedCount(t *testing.T) {
	header := func(est float64, n uint32) []byte {
		b := binary.BigEndian.AppendUint32(nil, 45)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(est))
		b = append(b, make([]byte, 5*8)...) // funnel counts, server bytes
		return binary.BigEndian.AppendUint32(b, n)
	}

	// One declared server per payload byte: 1 MiB may not cost 40 MiB.
	const n = 1 << 20
	payload := append(header(0, n), make([]byte, n)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeResult(1, payload)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFormat) {
		t.Errorf("count %d in %d bytes: err = %v, want ErrFormat", n, n, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > n/16 {
		t.Errorf("rejecting a forged count allocated %d bytes", alloc)
	}

	// A count one record short of its payload still fails.
	if _, err := DecodeResult(1, append(header(0, 2), make([]byte, 2*minServerLen-1)...)); !errors.Is(err, ErrFormat) {
		t.Errorf("2 records in %d bytes: err = %v, want ErrFormat", 2*minServerLen-1, err)
	}

	// 1000 minimal records of one repeated IP used to decode, without
	// error, into a single server.
	if _, err := DecodeResult(1, append(header(0, 1000), make([]byte, 1000*minServerLen)...)); !errors.Is(err, ErrFormat) {
		t.Errorf("1000 records of IP 0.0.0.0: err = %v, want ErrFormat", err)
	}

	rec := make([]byte, minServerLen)
	rec[3] = 1 // ip 0.0.0.1
	rec[4] = flagAlsoClient << 1
	if _, err := DecodeResult(1, append(header(0, 1), rec...)); !errors.Is(err, ErrFormat) {
		t.Errorf("unknown flag bit: err = %v, want ErrFormat", err)
	}
	rec[4] = flagsKnown
	if _, err := DecodeResult(1, append(header(0, 1), rec...)); err != nil {
		t.Errorf("minimal record with every known flag: %v", err)
	}
	for _, est := range []float64{math.NaN(), -0.5, 1.5} {
		if _, err := DecodeResult(1, append(header(est, 1), rec...)); !errors.Is(err, ErrFormat) {
			t.Errorf("loss fraction %v: err = %v, want ErrFormat", est, err)
		}
	}
}

// fuzzSeeds returns encoded products to seed a decoder fuzz target
// with: the snapshot package's synthetic products, an empty product,
// and the products of the synthetic record stream.
func fuzzSeeds(f *testing.F, name string) [][]byte {
	var prods []Product
	switch name {
	case NameWebserver:
		// The webserver analyzer needs a crawler, so its seeds are the
		// snapshot package's synthetic result, an empty one, and the
		// webserver section of the committed snapshot fixture as written.
		seeds := [][]byte{
			encode(f, &WebserverProduct{Res: &webserver.Result{Week: 45}}),
			encode(f, &WebserverProduct{Res: syntheticResult()}),
		}
		return append(seeds, fixtureResult(f))
	case NameLinks:
		prods = []Product{
			&LinksProduct{},
			&LinksProduct{Flows: []Flow{
				{FlowKey: FlowKey{Src: packet.MakeIPv4(10, 0, 0, 1), Dst: packet.MakeIPv4(172, 16, 0, 9), In: 3, Out: 7}, Bytes: 4096, Samples: 2},
				{FlowKey: FlowKey{Src: packet.MakeIPv4(10, 0, 0, 2), Dst: packet.MakeIPv4(10, 0, 0, 1), In: 7, Out: -1}, Bytes: 1 << 20, Samples: 9},
			}},
		}
	case NameAttributes:
		tab := attrSubstrates(f)
		return [][]byte{
			encode(f, AttributesOf(tab, nil)),
			encode(f, AttributesOf(tab, attrIPs)),
			encode(f, AttributesOf(tab, attrIPs[1:4])),
		}
	case NameVisibility:
		prods = []Product{
			&VisibilityProduct{},
			&VisibilityProduct{PerIP: []visibility.IPTraffic{
				{IP: packet.MakeIPv4(10, 0, 0, 1), Bytes: 99},
				{IP: packet.MakeIPv4(10, 0, 0, 2), Bytes: 0},
				{IP: packet.MakeIPv4(172, 16, 0, 9), Bytes: 1 << 33},
			}},
		}
	}
	reg, err := NewRegistry(Visibility(), Links())
	if err != nil {
		f.Fatal(err)
	}
	run := reg.NewRun(testContext(), 1)
	recs := syntheticRecords()
	for i := range recs {
		run.Observe(0, &recs[i], uint64(i))
	}
	all, err := run.Finish(45)
	if err != nil {
		f.Fatal(err)
	}
	prods = append(prods, all.Get(name))
	seeds := make([][]byte, len(prods))
	for i, p := range prods {
		seeds[i] = encode(f, p)
	}
	return seeds
}

// addDecoderSeeds seeds a product decoder's fuzz target: each of the
// product's seed encodings whole and one byte short, an unknown version
// and a forged count.
func addDecoderSeeds(f *testing.F, name string) {
	for _, seed := range fuzzSeeds(f, name) {
		f.Add(uint16(1), seed)
		f.Add(uint16(1), seed[:len(seed)-1])
	}
	f.Add(uint16(2), []byte{0, 0, 0, 0})
	f.Add(uint16(1), []byte{0xff, 0xff, 0xff, 0xff})
}

// fuzzDecoder checks the codec property shared by every product: the
// decoder returns a typed error, or a product that re-encodes to
// exactly the input.
func fuzzDecoder(f *testing.F, name string, decode func(uint16, []byte) (Product, error)) {
	addDecoderSeeds(f, name)
	f.Fuzz(func(t *testing.T, version uint16, data []byte) {
		p, err := decode(version, data)
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if got := encode(t, p); !bytes.Equal(got, data) {
			t.Fatalf("re-encode drifted:\n got %x\nwant %x", got, data)
		}
	})
}

func FuzzDecodeLinks(f *testing.F) {
	fuzzDecoder(f, NameLinks, func(v uint16, b []byte) (Product, error) { return DecodeLinks(v, b) })
}

func FuzzDecodeVisibility(f *testing.F) {
	fuzzDecoder(f, NameVisibility, func(v uint16, b []byte) (Product, error) { return DecodeVisibility(v, b) })
}

// syntheticResult mirrors the snapshot package's synthetic result: every
// flag combination, empty and populated sets, alt names, a loss figure.
func syntheticResult() *webserver.Result {
	res := &webserver.Result{
		Week: 45, Servers: map[packet.IPv4Addr]*webserver.Server{},
		Candidates443: 7, Responded443: 6, Valid443: 5, TotalIPs: 1234,
		ServerBytes: 1 << 40, EstLoss: 0.0321,
	}
	for _, s := range []*webserver.Server{
		{IP: packet.MakeIPv4(10, 0, 0, 1), HTTP: true, Bytes: 99, Member: 17, AlsoClient: true,
			Ports: []uint16{80, 443, 8080}, Hosts: []string{"a.example", "b.example"}},
		{IP: packet.MakeIPv4(10, 0, 0, 2), HTTPS: true, Bytes: 1 << 50, Member: -1, Ports: []uint16{443},
			Cert: certsim.Info{Subject: "shop.example", AltNames: []string{"cdn.example", "img.example"}}},
		{IP: packet.MakeIPv4(10, 0, 0, 3), HTTP: true, HTTPS: true,
			Cert: certsim.Info{Subject: "only-subject.example"}},
	} {
		res.Servers[s.IP] = s
	}
	return res
}

// fixtureResult cuts the webserver section out of the snapshot
// package's committed IXPSNAP2 fixture: past the 20-byte container
// header, each table entry names a section and its length, and the
// payloads follow the table in its order.
func fixtureResult(f *testing.F) []byte {
	buf, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", "week-45.snap"))
	if err != nil {
		f.Fatal(err)
	}
	cur := NewCursor(buf[8:])
	n, tableLen := int(cur.U32()), int(cur.U32())
	cur.U32() // table CRC
	table := NewCursor(cur.Take(tableLen))
	var seg []byte
	for i := 0; i < n; i++ {
		name := string(table.Take(int(table.U8())))
		table.U16() // version
		payload := cur.Take(int(table.U32()))
		table.U32() // payload CRC
		if name == NameWebserver {
			seg = payload
		}
	}
	if cur.Bad() || table.Bad() || len(seg) == 0 {
		f.Fatal("fixture has no webserver section")
	}
	return seg
}

// BenchmarkLinksObserveFinish measures one week of the links analyzer
// on one worker: ~66K peering samples observed, then aggregated.
func BenchmarkLinksObserveFinish(b *testing.B) {
	state := uint64(99)
	next := func(n uint64) uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state % n
	}
	recs := make([]dissect.Record, 66000)
	for i := range recs {
		recs[i] = dissect.Record{
			Class:     dissect.ClassPeeringTCP,
			SrcIP:     packet.IPv4Addr(0x0a000000 | next(512)),
			DstIP:     packet.IPv4Addr(0x50000000 | next(1<<14)),
			InMember:  int32(next(30)),
			OutMember: int32(next(31)) - 1,
			Bytes:     64 + next(1400),
		}
	}
	ctx := testContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := Links().NewState(ctx, 1)
		for j := range recs {
			st.Observe(0, &recs[j], 0, 0, uint64(j))
		}
		if _, err := st.Finish(45); err != nil {
			b.Fatal(err)
		}
	}
}
