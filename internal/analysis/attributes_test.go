package analysis

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"ixplens/internal/core/dissect"
	"ixplens/internal/entity"
	"ixplens/internal/geo"
	"ixplens/internal/packet"
	"ixplens/internal/routing"
)

// attrSubstrates is a small RIB and geo DB: nested prefixes of two
// origins, a routed range without a country and a country outside the
// RIB.
func attrSubstrates(tb testing.TB) *entity.Table {
	tb.Helper()
	rib := routing.NewTable()
	rib.Insert(routing.MakePrefix(packet.MakeIPv4(10, 0, 0, 0), 8), 64500)
	rib.Insert(routing.MakePrefix(packet.MakeIPv4(10, 1, 0, 0), 16), 64501)
	rib.Insert(routing.MakePrefix(packet.MakeIPv4(172, 16, 0, 0), 12), 64502)
	gdb, err := geo.Build([]geo.Range{
		{First: packet.MakeIPv4(10, 0, 0, 0), Last: packet.MakeIPv4(10, 0, 255, 255), Country: "DE"},
		{First: packet.MakeIPv4(10, 1, 0, 0), Last: packet.MakeIPv4(10, 1, 255, 255), Country: "JP"},
		{First: packet.MakeIPv4(192, 168, 0, 0), Last: packet.MakeIPv4(192, 168, 255, 255), Country: "US"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return entity.NewTable(rib, gdb)
}

// attrIPs covers every shape: both nested prefixes, a routed IP without
// a country, a country without a route, an unrouted uncovered IP, and
// the ends of the address space.
var attrIPs = []packet.IPv4Addr{
	0,
	packet.MakeIPv4(10, 0, 0, 1), packet.MakeIPv4(10, 0, 0, 2), packet.MakeIPv4(10, 1, 0, 3),
	packet.MakeIPv4(10, 2, 0, 4), packet.MakeIPv4(172, 16, 0, 9), packet.MakeIPv4(192, 168, 7, 7),
	packet.MakeIPv4(203, 0, 113, 1), 1<<32 - 1,
}

// TestAttributesMatchTable: every covered IP's attributes are exactly
// what the table resolves, the product round-trips through its codec,
// and IPs outside it are not found.
func TestAttributesMatchTable(t *testing.T) {
	tab := attrSubstrates(t)
	// Intern in an order unrelated to the IPs' so table IDs cannot leak
	// into the encoding.
	for i := len(attrIPs) - 1; i >= 0; i-- {
		tab.Resolve(attrIPs[i])
	}
	p := AttributesOf(tab, attrIPs)
	buf := encode(t, p)
	back, err := DecodeAttributes(AttributesVersion, buf)
	if err != nil {
		t.Fatal(err)
	}
	if again := encode(t, back); !bytes.Equal(again, buf) {
		t.Fatal("attributes re-encode drifted")
	}
	if fresh := encode(t, AttributesOf(attrSubstrates(t), attrIPs)); !bytes.Equal(fresh, buf) {
		t.Fatal("attributes encoding depends on the table's intern order")
	}
	if back.Len() != len(attrIPs) {
		t.Fatalf("%d IPs, want %d", back.Len(), len(attrIPs))
	}
	for i, ip := range attrIPs {
		_, a := tab.ResolveAttrs(ip)
		want := IPAttrs{ASN: a.ASN, Prefix: a.Prefix, Country: tab.Countries.Value(a.CountryID)}
		got, ok := back.Find(ip)
		if !ok || got != want || back.At(i) != want || back.IP(i) != ip {
			t.Fatalf("%v: attributes %+v (found %v), table %+v", ip, got, ok, want)
		}
	}
	if _, ok := back.Find(packet.MakeIPv4(10, 0, 0, 3)); ok {
		t.Fatal("an IP outside the product was found")
	}
}

// TestRunFinishWritesAttributes: a run's attributes cover every server
// and every visibility IP, and nothing else, and are what AttributesOf
// resolves for those addresses; without the visibility analyzer they
// cover the servers.
func TestRunFinishWritesAttributes(t *testing.T) {
	tab := attrSubstrates(t)
	finish := func(reg *Registry) *Products {
		t.Helper()
		run := reg.NewRun(&Context{Entities: tab}, 2)
		recs := syntheticRecords()
		// Two HTTP requests make two servers, one of them unrouted.
		for _, dst := range []packet.IPv4Addr{packet.MakeIPv4(10, 0, 0, 2), packet.MakeIPv4(192, 168, 7, 7)} {
			recs = append(recs, dissect.Record{
				Class: dissect.ClassPeeringTCP, SrcIP: packet.MakeIPv4(10, 0, 0, 1), DstIP: dst,
				SrcPort: 40000, DstPort: 80, Bytes: 600, Payload: []byte("GET / HTTP/1.1\r\nHost: a.example\r\n"),
			})
		}
		for i := range recs {
			run.Observe(i%2, &recs[i], uint64(i))
		}
		prods, err := run.Finish(45)
		if err != nil {
			t.Fatal(err)
		}
		return prods
	}
	servers := finish(webserverOnly(t))
	var serverIPs []packet.IPv4Addr
	for ip := range servers.Webserver().Servers {
		serverIPs = append(serverIPs, ip)
	}
	slices.Sort(serverIPs)
	if len(serverIPs) != 2 || !bytes.Equal(encode(t, servers.Attributes()), encode(t, AttributesOf(tab, serverIPs))) {
		t.Fatalf("webserver-only run: attributes do not cover exactly its %d servers", len(serverIPs))
	}

	prods := finish(Default())
	var want []packet.IPv4Addr
	for _, e := range prods.Visibility().PerIP {
		want = append(want, e.IP)
	}
	for ip := range prods.Webserver().Servers {
		if _, ok := slices.BinarySearch(want, ip); !ok {
			t.Fatalf("server %v is no visibility IP", ip)
		}
	}
	attrs := prods.Attributes()
	var got []packet.IPv4Addr
	for i := 0; i < attrs.Len(); i++ {
		got = append(got, attrs.IP(i))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("attributes cover %v, want %v", got, want)
	}
	if !bytes.Equal(encode(t, attrs), encode(t, AttributesOf(tab, want))) {
		t.Fatal("attributes read by ID differ from those resolved by address")
	}
}

func webserverOnly(t *testing.T) *Registry {
	t.Helper()
	reg, err := NewRegistry(Webserver())
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestDecodeAttributesRejects: non-canonical and forged payloads fail
// with typed errors.
func TestDecodeAttributesRejects(t *testing.T) {
	valid := encode(t, AttributesOf(attrSubstrates(t), attrIPs))
	if _, err := DecodeAttributes(2, valid); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 2: %v, want ErrVersion", err)
	}
	unordered := encode(t, &AttributesProduct{
		ips: []packet.IPv4Addr{1}, origin: []uint32{0}, country: []uint16{0},
		origins: []Origin{{}}, countries: []string{"", "US", "DE"},
	})
	overlong := encode(t, &AttributesProduct{
		ips: []packet.IPv4Addr{5}, origin: []uint32{0}, country: []uint16{0},
		origins: []Origin{{}}, countries: []string{""},
	})
	overlong = append(overlong[:len(overlong)-3], 0x85, 0x00, 0, 0) // gap 5 in two bytes
	for name, payload := range map[string][]byte{
		"truncated":      valid[:len(valid)-1],
		"trailing":       append(bytes.Clone(valid), 0),
		"forged count":   {0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
		"unordered":      unordered,
		"overlong gap":   overlong,
		"empty":          nil,
		"unmasked":       {0, 0, 0, 0, 0, 1, 10, 0, 0, 1, 8, 0, 0, 0, 1, 0, 0, 0, 0},
		"country oob":    {0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1},
		"origin oob":     {0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 0},
		"repeated IP":    {0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0},
		"too many ones":  {0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x1f, 0, 0},
		"negative index": {0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0},
	} {
		if _, err := DecodeAttributes(AttributesVersion, payload); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: %v, want ErrFormat", name, err)
		}
	}
}

func FuzzDecodeAttributes(f *testing.F) {
	fuzzDecoder(f, NameAttributes, func(v uint16, b []byte) (Product, error) { return DecodeAttributes(v, b) })
}
