package snapshot

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ixplens/internal/analysis"
	"ixplens/internal/certsim"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/visibility"
	"ixplens/internal/core/webserver"
	"ixplens/internal/entity"
	"ixplens/internal/geo"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/routing"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

// syntheticResultOnly builds a snapshot with only the required
// sections — the result, counts and digest — exercising every field
// shape of the result: flags in all combinations, empty and populated
// sets, certificate alt names, a non-zero loss annotation. It is what
// the committed fixture holds.
func syntheticResultOnly() *Snapshot {
	res := &webserver.Result{
		Week:          45,
		Servers:       map[packet.IPv4Addr]*webserver.Server{},
		Candidates443: 7,
		Responded443:  6,
		Valid443:      5,
		TotalIPs:      1234,
		ServerBytes:   1 << 40,
		EstLoss:       0.0321,
	}
	res.Servers[packet.MakeIPv4(10, 0, 0, 1)] = &webserver.Server{
		IP: packet.MakeIPv4(10, 0, 0, 1), HTTP: true, Bytes: 99,
		Ports: []uint16{80, 443, 8080}, Hosts: []string{"a.example", "b.example"},
		AlsoClient: true, Member: 17,
	}
	res.Servers[packet.MakeIPv4(10, 0, 0, 2)] = &webserver.Server{
		IP: packet.MakeIPv4(10, 0, 0, 2), HTTPS: true, Bytes: 1 << 50, Member: -1,
		Ports: []uint16{443},
		Cert:  certsim.Info{Subject: "shop.example", AltNames: []string{"cdn.example", "img.example"}},
	}
	res.Servers[packet.MakeIPv4(10, 0, 0, 3)] = &webserver.Server{
		IP: packet.MakeIPv4(10, 0, 0, 3), HTTP: true, HTTPS: true, Member: 0,
		Cert: certsim.Info{Subject: "only-subject.example"},
	}
	return &Snapshot{
		Result: res,
		Counts: dissect.Counts{
			Total: 100000, Undecodable: 3, NonIPv4: 40, Local: 55, NonTCPUDP: 66,
			PeeringTCP: 90000, PeeringUDP: 9000, PanicQuarantined: 2,
			TotalBytes: 1 << 55, PeeringTCPBytes: 1 << 54, PeeringUDPBytes: 1 << 40,
		},
		SourceDigest: "c0ffee",
	}
}

// synthetic extends syntheticResultOnly with every multi-section shape: both
// optional analyzer products (including a zero-byte visibility entry)
// and an unknown Extra section from a hypothetical future analyzer.
func synthetic() *Snapshot {
	snap := syntheticResultOnly()
	snap.vis = decoded(1, &analysis.VisibilityProduct{PerIP: []visibility.IPTraffic{
		{IP: packet.MakeIPv4(10, 0, 0, 1), Bytes: 99},
		{IP: packet.MakeIPv4(10, 0, 0, 2), Bytes: 0},
		{IP: packet.MakeIPv4(172, 16, 0, 9), Bytes: 1 << 33},
	}})
	snap.links = decoded(1, &analysis.LinksProduct{Flows: []analysis.Flow{
		{FlowKey: analysis.FlowKey{Src: packet.MakeIPv4(10, 0, 0, 1), Dst: packet.MakeIPv4(172, 16, 0, 9), In: 3, Out: 7}, Bytes: 4096, Samples: 2},
		{FlowKey: analysis.FlowKey{Src: packet.MakeIPv4(10, 0, 0, 2), Dst: packet.MakeIPv4(10, 0, 0, 1), In: 7, Out: -1}, Bytes: 1 << 20, Samples: 9},
	}})
	snap.attrs = decoded(analysis.AttributesVersion, syntheticAttrs())
	snap.Extra = []Section{{Name: "zz-future", Version: 3, Payload: []byte{1, 2, 3, 4}}}
	return snap
}

// syntheticAttrs covers every IP synthetic's products mention: routed
// and geolocated, routed without a country, and neither.
func syntheticAttrs() *analysis.AttributesProduct {
	rib := routing.NewTable()
	rib.Insert(routing.MakePrefix(packet.MakeIPv4(10, 0, 0, 0), 8), 64500)
	rib.Insert(routing.MakePrefix(packet.MakeIPv4(10, 0, 0, 0), 30), 64501)
	gdb, err := geo.Build([]geo.Range{{First: packet.MakeIPv4(10, 0, 0, 0), Last: packet.MakeIPv4(10, 0, 0, 2), Country: "DE"}})
	if err != nil {
		panic(err)
	}
	return analysis.AttributesOf(entity.NewTable(rib, gdb), []packet.IPv4Addr{
		packet.MakeIPv4(10, 0, 0, 1), packet.MakeIPv4(10, 0, 0, 2),
		packet.MakeIPv4(10, 0, 0, 3), packet.MakeIPv4(172, 16, 0, 9),
	})
}

// forcedSnapshot is a snapshot's content with every lazy product
// decoded, in a form reflect.DeepEqual can compare: the lazy wrappers
// also hold decode state, which differs between equal snapshots.
type forcedSnapshot struct {
	Result       *webserver.Result
	Counts       dissect.Counts
	SourceDigest string
	Visibility   *analysis.VisibilityProduct
	Links        *analysis.LinksProduct
	Attributes   *analysis.AttributesProduct
	Extra        []Section
}

// forced decodes snap's products, failing the test if any does not
// decode.
func forced(t testing.TB, snap *Snapshot) forcedSnapshot {
	t.Helper()
	vis, err := snap.Visibility()
	if err != nil {
		t.Fatalf("forcing visibility: %v", err)
	}
	links, err := snap.Links()
	if err != nil {
		t.Fatalf("forcing links: %v", err)
	}
	attrs, err := snap.Attributes()
	if err != nil {
		t.Fatalf("forcing attributes: %v", err)
	}
	return forcedSnapshot{snap.Result, snap.Counts, snap.SourceDigest, vis, links, attrs, snap.Extra}
}

// appendEncodeV1 appends the retired single-section IXPSNAP1 container
// — "IXPSNAP1" rawLen:u32 crc:u32, then the digest, counts and result —
// as builds before the multi-section container wrote it, so the refusal
// of such files can be tested. Products other than the result are not
// representable in it and are dropped.
func appendEncodeV1(dst []byte, snap *Snapshot) ([]byte, error) {
	if snap == nil || snap.Result == nil {
		return dst, errors.New("snapshot: nil result")
	}
	payload := analysis.AppendString(nil, snap.SourceDigest)
	payload = appendCounts(payload, &snap.Counts)
	payload, err := analysis.AppendResult(payload, snap.Result)
	if err != nil {
		return dst, err
	}
	dst = append(dst, "IXPSNAP1"...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...), nil
}

func TestRoundTripSynthetic(t *testing.T) {
	snap := synthetic()
	buf, err := AppendEncode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forced(t, snap), forced(t, got)) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", snap, got)
	}
	// Re-encoding the decoded snapshot must be byte-identical: the
	// codec is deterministic, so snapshots can be compared by digest.
	buf2, err := AppendEncode(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("re-encoded snapshot differs from original encoding")
	}
}

// TestGoldenFixture pins the container against a committed file: it
// decodes to the synthetic result-only snapshot, and both the decoded
// and the opened week re-encode to it byte for byte. Its webserver
// section is the result segment the IXPSNAP1 fixture it replaced held,
// so the fuzz targets seeded from it keep their seeds.
func TestGoldenFixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "week-45.snap"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(fixture)
	if err != nil {
		t.Fatalf("fixture no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(forced(t, snap), forced(t, syntheticResultOnly())) {
		t.Fatalf("fixture decoded to unexpected snapshot:\n%+v", snap)
	}
	reenc, err := AppendEncode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixture, reenc) {
		t.Fatal("decoded fixture re-encodes differently")
	}
	o, err := Open(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if reenc, err := o.appendEncode(nil); err != nil || !bytes.Equal(fixture, reenc) {
		t.Fatalf("opened fixture re-encodes differently (err %v)", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	snap := synthetic()
	path := filepath.Join(t.TempDir(), FileName(45))
	digest, err := SaveFileFS(vfs.Default, path, snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadFileFS(vfs.Default, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forced(t, snap), forced(t, got)) {
		t.Fatal("file round trip diverged")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != digest {
		t.Fatal("SaveFileFS digest does not match the bytes on disk")
	}
	// SaveFileFS is atomic: no temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the snapshot", len(entries))
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	for _, tc := range []struct {
		name      string
		encode    func([]byte, *Snapshot) ([]byte, error)
		snap      *Snapshot
		headerLen int
	}{
		{"v2", AppendEncode, synthetic(), headerLenV2},
	} {
		buf, err := tc.encode(nil, tc.snap)
		if err != nil {
			t.Fatal(err)
		}

		// Every single-bit flip past the fixed header must surface as
		// ErrChecksum (the table and every payload are each covered by
		// a CRC), never decode to a silently different result.
		for off := tc.headerLen; off < len(buf); off += 7 {
			bad := bytes.Clone(buf)
			bad[off] ^= 0x40
			if _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
				t.Fatalf("%s: flip at %d: got %v, want ErrChecksum", tc.name, off, err)
			}
		}
		// Flips inside the header fields must still fail — the exact
		// error depends on which field was hit.
		for off := 8; off < tc.headerLen; off++ {
			bad := bytes.Clone(buf)
			bad[off] ^= 0x40
			if _, err := Decode(bad); err == nil {
				t.Fatalf("%s: header flip at %d decoded successfully", tc.name, off)
			}
		}

		// Wrong magic.
		bad := bytes.Clone(buf)
		bad[0] = 'X'
		if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%s: bad magic: got %v", tc.name, err)
		}

		// Truncation at any point fails cleanly (magic, format or
		// checksum error depending on the cut — never a panic or a
		// wrong result).
		for cut := 0; cut < len(buf); cut += 13 {
			if _, err := Decode(buf[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d decoded successfully", tc.name, cut)
			}
		}

		// A corrupt declared length must not drive a huge allocation.
		bad = bytes.Clone(buf)
		bad[8], bad[9], bad[10], bad[11] = 0xff, 0xff, 0xff, 0xff
		if _, err := Decode(bad); err == nil {
			t.Fatalf("%s: absurd length decoded successfully", tc.name)
		}

		// Trailing garbage is rejected.
		if _, err := Decode(append(bytes.Clone(buf), 0)); err == nil {
			t.Fatalf("%s: trailing byte decoded successfully", tc.name)
		}
	}
}

// TestDecodeRefusesIXPSNAP1: a well-formed file in the retired
// single-section container fails Decode, Open and both file readers
// with ErrBadMagic, the error that makes ixpmine re-mine the week and
// ixpserve answer 503.
func TestDecodeRefusesIXPSNAP1(t *testing.T) {
	v1, err := appendEncodeV1(nil, syntheticResultOnly())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(v1); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Decode: got %v, want ErrBadMagic", err)
	}
	if _, err := Open(v1); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Open: got %v, want ErrBadMagic", err)
	}
	path := filepath.Join(t.TempDir(), FileName(45))
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFileFS(vfs.Default, path); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("LoadFileFS: got %v, want ErrBadMagic", err)
	}
	if _, err := OpenFileFS(vfs.Default, path); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("OpenFileFS: got %v, want ErrBadMagic", err)
	}
}

func TestDecodeUnknownMagic(t *testing.T) {
	for _, buf := range [][]byte{
		nil,
		[]byte("short"),
		[]byte("IXPSNAP9--------"),
		[]byte("NOTASNAPFILE----"),
	} {
		if _, err := Decode(buf); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("Decode(%q): got %v, want ErrBadMagic", buf, err)
		}
	}
}

// reencodeWithSectionVersion rewrites one section's declared version in
// an encoded v2 container, fixing up the table CRC so the tamper is
// structurally valid and only the version check can reject it.
func reencodeWithSectionVersion(t *testing.T, buf []byte, name string, version uint16) []byte {
	t.Helper()
	bad := bytes.Clone(buf)
	n := int(binary.BigEndian.Uint32(bad[8:12]))
	tableLen := int(binary.BigEndian.Uint32(bad[12:16]))
	off := headerLenV2
	found := false
	for i := 0; i < n; i++ {
		nameLen := int(bad[off])
		if string(bad[off+1:off+1+nameLen]) == name {
			binary.BigEndian.PutUint16(bad[off+1+nameLen:], version)
			found = true
		}
		off += 1 + nameLen + 2 + 4 + 4
	}
	if !found {
		t.Fatalf("section %q not present", name)
	}
	table := bad[headerLenV2 : headerLenV2+tableLen]
	binary.BigEndian.PutUint32(bad[16:20], crc32.Checksum(table, crc32.MakeTable(crc32.Castagnoli)))
	return bad
}

// TestSectionVersionRejected pins the forward-compat contract: a known
// section at a version this build cannot decode fails with the typed
// ErrSectionVersion (no panic, no silent skip), for builtin analyzer
// sections and the meta/counts sections alike.
func TestSectionVersionRejected(t *testing.T) {
	buf, err := AppendEncode(nil, synthetic())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meta", "counts", "webserver", "visibility", "links"} {
		bad := reencodeWithSectionVersion(t, buf, name, 0x7fff)
		if _, err := Decode(bad); !errors.Is(err, ErrSectionVersion) {
			t.Fatalf("section %q at v32767: got %v, want ErrSectionVersion", name, err)
		}
	}
	// An UNKNOWN section's version is none of our business: it must be
	// preserved in Extra untouched, whatever it claims.
	bad := reencodeWithSectionVersion(t, buf, "zz-future", 0x7fff)
	snap, err := Decode(bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Extra) != 1 || snap.Extra[0].Version != 0x7fff {
		t.Fatalf("unknown section not preserved: %+v", snap.Extra)
	}
}

func TestTruncatedSectionTableRejected(t *testing.T) {
	buf, err := AppendEncode(nil, synthetic())
	if err != nil {
		t.Fatal(err)
	}
	tableLen := int(binary.BigEndian.Uint32(buf[12:16]))
	// Cut the container off mid-table: every prefix that still carries
	// the fixed header but not the whole table must be ErrFormat.
	for cut := headerLenV2; cut < headerLenV2+tableLen; cut += 3 {
		if _, err := Decode(buf[:cut]); !errors.Is(err, ErrFormat) {
			t.Fatalf("table truncated at %d: got %v, want ErrFormat", cut, err)
		}
	}
}

func TestMissingRequiredSection(t *testing.T) {
	// A v2 container missing webserver/meta/counts must be rejected:
	// hand-build one holding only an unknown section.
	payload := []byte{9, 9}
	var table []byte
	table = append(table, byte(len("odd")))
	table = append(table, "odd"...)
	table = binary.BigEndian.AppendUint16(table, 1)
	table = binary.BigEndian.AppendUint32(table, uint32(len(payload)))
	table = binary.BigEndian.AppendUint32(table, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	buf := []byte("IXPSNAP2")
	buf = binary.BigEndian.AppendUint32(buf, 1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(table)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(table, crc32.MakeTable(crc32.Castagnoli)))
	buf = append(buf, table...)
	buf = append(buf, payload...)
	if _, err := Decode(buf); !errors.Is(err, ErrFormat) {
		t.Fatalf("container without required sections: got %v, want ErrFormat", err)
	}
}

// TestSectionsOutOfOrderRejected pins the canonical section order: the
// writer sorts sections by name, so a table in any other order (which
// would decode to a different Extra order than its rewrite) is ErrFormat.
func TestSectionsOutOfOrderRejected(t *testing.T) {
	crc := func(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }
	build := func(names ...string) []byte {
		var table, payloads []byte
		for _, name := range names {
			payload := []byte(name)
			table = append(table, byte(len(name)))
			table = append(table, name...)
			table = binary.BigEndian.AppendUint16(table, 1)
			table = binary.BigEndian.AppendUint32(table, uint32(len(payload)))
			table = binary.BigEndian.AppendUint32(table, crc(payload))
			payloads = append(payloads, payload...)
		}
		buf := []byte("IXPSNAP2")
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(names)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(table)))
		buf = binary.BigEndian.AppendUint32(buf, crc(table))
		buf = append(buf, table...)
		return append(buf, payloads...)
	}
	for _, names := range [][]string{{"zz", "aa"}, {"aa", "aa"}} {
		if _, err := Decode(build(names...)); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "out of order") {
			t.Fatalf("sections %q: got %v, want ErrFormat (out of order)", names, err)
		}
	}
}

// FuzzSnapshotDecode checks the container's codec property: Decode
// returns one of the package's typed errors, or a snapshot that
// re-encodes and decodes back to the same value.
func FuzzSnapshotDecode(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "week-45.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	v1, err := appendEncodeV1(nil, syntheticResultOnly())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	for _, snap := range []*Snapshot{syntheticResultOnly(), synthetic()} {
		buf, err := AppendEncode(nil, snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
	}
	// A container whose links section verifies but does not decode:
	// Decode accepts it, and only the forced product fails.
	full, err := AppendEncode(nil, synthetic())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(replaceSection(f, full, analysis.NameLinks, []byte{0, 0, 0, 9}))
	// The same for the attributes section: a forged IP count, and one
	// entry too few.
	attrs, err := syntheticAttrs().AppendEncode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(replaceSection(f, full, analysis.NameAttributes, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 9}))
	f.Add(replaceSection(f, full, analysis.NameAttributes, attrs[:len(attrs)-3]))
	// Server lists that verify but do not index: an out-of-order IP, an
	// unknown flag, a truncated record.
	ws, err := analysis.AppendResult(nil, synthetic().Result)
	if err != nil {
		f.Fatal(err)
	}
	_, refs, err := analysis.IndexResult(1, ws)
	if err != nil || len(refs) < 2 {
		f.Fatalf("synthetic result does not index: %v", err)
	}
	outOfOrder := bytes.Clone(ws)
	copy(outOfOrder[refs[1].Off:], ws[refs[0].Off:refs[0].Off+4])
	unknownFlag := bytes.Clone(ws)
	unknownFlag[refs[0].Off+4] |= 0x80
	for _, bad := range [][]byte{outOfOrder, unknownFlag, ws[:refs[1].Off+20]} {
		f.Add(replaceSection(f, full, analysis.NameWebserver, bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		opened, oerr := Open(data)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("Decode error %v, Open error %v", err, oerr)
		}
		checkOpenFileFSAgrees(t, data, opened)
		if err != nil {
			if !isAny(err, ErrBadMagic, ErrChecksum, ErrFormat, ErrSectionVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		checkOpenedMatches(t, opened, snap)
		// Decode verified the container; each product decodes on first
		// use to a typed error or a product.
		vis, visErr := snap.Visibility()
		links, linksErr := snap.Links()
		attrs, attrsErr := snap.Attributes()
		for _, err := range []error{visErr, linksErr, attrsErr} {
			if err != nil && !isAny(err, ErrFormat, ErrSectionVersion) {
				t.Fatalf("untyped product error: %v", err)
			}
		}
		buf, err := AppendEncode(nil, snap)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		gotVis, gotVisErr := got.Visibility()
		gotLinks, gotLinksErr := got.Links()
		gotAttrs, gotAttrsErr := got.Attributes()
		if (visErr == nil) != (gotVisErr == nil) || (linksErr == nil) != (gotLinksErr == nil) ||
			(attrsErr == nil) != (gotAttrsErr == nil) {
			t.Fatalf("product errors diverged: visibility %v then %v, links %v then %v, attributes %v then %v",
				visErr, gotVisErr, linksErr, gotLinksErr, attrsErr, gotAttrsErr)
		}
		want := forcedSnapshot{snap.Result, snap.Counts, snap.SourceDigest, vis, links, attrs, snap.Extra}
		have := forcedSnapshot{got.Result, got.Counts, got.SourceDigest, gotVis, gotLinks, gotAttrs, got.Extra}
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", have, want)
		}
	})
}

// checkOpenedMatches holds an opened week to the decoded snapshot of the
// same bytes: the same header, counts and top-k rows from the index, the
// same container bytes before and after its result is built, and that
// result equal to the decoded one.
func checkOpenedMatches(t *testing.T, o *Opened, snap *Snapshot) {
	t.Helper()
	res := snap.Result
	h := o.Header()
	if h.Week != res.Week || h.EstLoss != res.EstLoss || h.Candidates443 != res.Candidates443 ||
		h.Responded443 != res.Responded443 || h.Valid443 != res.Valid443 ||
		h.TotalIPs != res.TotalIPs || h.ServerBytes != res.ServerBytes {
		t.Fatalf("opened header %+v, decoded result %+v", h, res)
	}
	if o.Counts != snap.Counts || o.SourceDigest != snap.SourceDigest || !reflect.DeepEqual(o.Extra, snap.Extra) {
		t.Fatal("opened counts, digest or extra sections diverged from decode")
	}
	https := 0
	for _, srv := range res.Servers {
		if srv.HTTPS {
			https++
		}
	}
	counts := analysis.ServerCounts{Servers: len(res.Servers), HTTPS: https, MultiPurpose: res.MultiPurpose(), DualRole: res.DualRole()}
	if got := analysis.CountServers(o.Servers()); got != counts {
		t.Fatalf("opened summary %+v, decoded %+v", got, counts)
	}
	topRows := func() [][]*webserver.Server {
		var out [][]*webserver.Server
		for _, k := range []int{1, 3, len(res.Servers)} {
			var rows []*webserver.Server
			for _, ref := range analysis.TopRefs(o.Servers(), k) {
				rows = append(rows, o.Server(ref))
			}
			out = append(out, rows)
		}
		return out
	}
	var wantRows [][]*webserver.Server
	for _, k := range []int{1, 3, len(res.Servers)} {
		wantRows = append(wantRows, res.TopServers(k))
	}
	encoded, err := AppendEncode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"unbuilt", "built"} {
		if got := topRows(); !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("%s opened top-k rows diverged from the decoded result's", stage)
		}
		got, err := o.appendEncode(nil)
		if err != nil || !bytes.Equal(got, encoded) {
			t.Fatalf("%s opened week re-encodes differently from the decoded one (err %v)", stage, err)
		}
		if !reflect.DeepEqual(o.Result(), res) {
			t.Fatal("opened week built a different result")
		}
	}
}

// isAny reports whether err matches any of targets.
func isAny(err error, targets ...error) bool {
	for _, target := range targets {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

// replaceSection rewrites an encoded v2 container with one section's
// payload replaced, every length and checksum fixed up, so the result
// verifies and only decoding the section can reject it.
func replaceSection(tb testing.TB, buf []byte, name string, payload []byte) []byte {
	tb.Helper()
	n := int(binary.BigEndian.Uint32(buf[8:12]))
	tableLen := int(binary.BigEndian.Uint32(buf[12:16]))
	tcur := analysis.NewCursor(buf[headerLenV2 : headerLenV2+tableLen])
	body := analysis.NewCursor(buf[headerLenV2+tableLen:])
	var secs []Section
	found := false
	for i := 0; i < n; i++ {
		sec := Section{Name: string(tcur.Take(int(tcur.U8()))), Version: tcur.U16()}
		sec.Payload = body.Take(int(tcur.U32()))
		tcur.U32()
		if sec.Name == name {
			sec.Payload, found = payload, true
		}
		secs = append(secs, sec)
	}
	if tcur.Bad() || body.Bad() || !found {
		tb.Fatalf("section %q not found in a well-formed container", name)
	}
	var table, payloads []byte
	for _, sec := range secs {
		table = append(table, byte(len(sec.Name)))
		table = append(table, sec.Name...)
		table = binary.BigEndian.AppendUint16(table, sec.Version)
		table = binary.BigEndian.AppendUint32(table, uint32(len(sec.Payload)))
		table = binary.BigEndian.AppendUint32(table, crc32.Checksum(sec.Payload, castagnoli))
		payloads = append(payloads, sec.Payload...)
	}
	out := append([]byte(nil), magicV2[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(secs)))
	out = binary.BigEndian.AppendUint32(out, uint32(len(table)))
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(table, castagnoli))
	out = append(out, table...)
	return append(out, payloads...)
}

// TestLazySectionMalformed: a links section whose checksum verifies but
// whose payload does not decode passes Decode, is reported present,
// fails only when forced — with ErrFormat, every time — and is written
// back unchanged.
func TestLazySectionMalformed(t *testing.T) {
	full, err := AppendEncode(nil, synthetic())
	if err != nil {
		t.Fatal(err)
	}
	bad := replaceSection(t, full, analysis.NameLinks, []byte{0, 0, 0, 9, 1, 2, 3})
	snap, err := Decode(bad)
	if err != nil {
		t.Fatalf("Decode of a verified container: %v", err)
	}
	if !snap.HasProduct(analysis.NameLinks) {
		t.Fatal("HasProduct(links) = false for a present section")
	}
	for i := 0; i < 2; i++ {
		if lp, err := snap.Links(); !errors.Is(err, ErrFormat) || lp != nil {
			t.Fatalf("Links() call %d = %v, %v; want nil, ErrFormat", i+1, lp, err)
		}
	}
	if _, err := snap.Visibility(); err != nil {
		t.Fatalf("the intact visibility section: %v", err)
	}
	out, err := AppendEncode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, bad) {
		t.Fatal("AppendEncode did not write the undecodable section back unchanged")
	}
}

// TestLazyFirstUseConcurrent: concurrent first callers share one decode
// per product and get the same pointer (run it under -race).
func TestLazyFirstUseConcurrent(t *testing.T) {
	buf, err := AppendEncode(nil, synthetic())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	var visDecodes, linksDecodes atomic.Int32
	visDecode, linksDecode := snap.vis.decode, snap.links.decode
	snap.vis.decode = func(v uint16, b []byte) (*analysis.VisibilityProduct, error) {
		visDecodes.Add(1)
		return visDecode(v, b)
	}
	snap.links.decode = func(v uint16, b []byte) (*analysis.LinksProduct, error) {
		linksDecodes.Add(1)
		return linksDecode(v, b)
	}

	const n = 8
	vis := make([]*analysis.VisibilityProduct, n)
	links := make([]*analysis.LinksProduct, n)
	errs := make([]error, 2*n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			links[i], errs[2*i] = snap.Links()
			vis[i], errs[2*i+1] = snap.Visibility()
		}()
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if vis[i] != vis[0] || links[i] != links[0] {
			t.Fatalf("goroutine %d got a different product pointer", i)
		}
	}
	if v, l := visDecodes.Load(), linksDecodes.Load(); v != 1 || l != 1 {
		t.Fatalf("decodes: visibility %d, links %d; want one each", v, l)
	}
	// Encoding after first use writes the decoded products back to the
	// same bytes.
	out, err := AppendEncode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, buf) {
		t.Fatal("re-encoding after first use changed the bytes")
	}
}

func TestHasProduct(t *testing.T) {
	snap := synthetic()
	for _, name := range []string{"webserver", "visibility", "links", "attributes", "zz-future"} {
		if !snap.HasProduct(name) {
			t.Fatalf("HasProduct(%q) = false on full snapshot", name)
		}
	}
	bare := syntheticResultOnly()
	if !bare.HasProduct("webserver") {
		t.Fatal("result-only snapshot lost its webserver product")
	}
	for _, name := range []string{"visibility", "links", "attributes", "nope"} {
		if bare.HasProduct(name) {
			t.Fatalf("HasProduct(%q) = true on result-only snapshot", name)
		}
	}
}

// TestGoldenAllWeeks is the codec's equivalence proof: for every study
// week, a snapshot round trip of the freshly analyzed fused products —
// the identification aggregates, the visibility and flow products, the
// cascade counts and the EstLoss annotation — reproduces them exactly,
// and the encoding itself is deterministic.
func TestGoldenAllWeeks(t *testing.T) {
	env, err := pipeline.NewEnv(netmodel.Tiny(),
		traffic.Options{SamplesPerWeek: 2000, SamplingRate: 16384, SnapLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &env.World.Cfg
	if cfg.Weeks != 17 {
		t.Fatalf("study has %d weeks, want 17", cfg.Weeks)
	}
	ctx := context.Background()
	for wk := cfg.FirstWeek; wk <= cfg.LastWeek(); wk++ {
		week, err := env.AnalyzeWeek(ctx, wk)
		if err != nil {
			t.Fatalf("week %d: %v", wk, err)
		}
		snap, err := FromProducts(week.Products, week.Counts)
		if err != nil {
			t.Fatalf("week %d: %v", wk, err)
		}
		snap.SourceDigest = "d"
		buf, err := AppendEncode(nil, snap)
		if err != nil {
			t.Fatalf("week %d: %v", wk, err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("week %d: %v", wk, err)
		}
		if !reflect.DeepEqual(forced(t, snap), forced(t, got)) {
			t.Fatalf("week %d: snapshot round trip diverged from fresh analysis", wk)
		}
		buf2, err := AppendEncode(nil, got)
		if err != nil {
			t.Fatalf("week %d: %v", wk, err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("week %d: snapshot encoding is not deterministic", wk)
		}
	}
}

// TestDecodeKeepsNoInput is the pooled read's safety contract: Decode
// and Open copy everything they keep, so the buffer a file was read into
// can be overwritten the moment they return. Both forms, with every
// product forced and the result built afterwards, still equal a fresh
// decode, and re-encode to the original bytes.
func TestDecodeKeepsNoInput(t *testing.T) {
	orig, err := AppendEncode(nil, synthetic())
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Clone(orig)
	snap, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xa5
	}
	if got, err := opened.appendEncode(nil); err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("unbuilt opened week re-encodes differently after its input was overwritten (err %v)", err)
	}
	var rows []*webserver.Server
	for _, ref := range opened.Servers() {
		rows = append(rows, opened.Server(ref))
	}
	fresh, err := Decode(bytes.Clone(orig))
	if err != nil {
		t.Fatal(err)
	}
	want := forced(t, fresh)
	if got := forced(t, snap); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded snapshot changed with its input:\n got %+v\nwant %+v", got, want)
	}
	if got := forced(t, opened.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatalf("opened week changed with its input:\n got %+v\nwant %+v", got, want)
	}
	for _, srv := range rows {
		if !reflect.DeepEqual(srv, fresh.Result.Servers[srv.IP]) {
			t.Fatalf("record %v decoded from the opened week changed with its input", srv.IP)
		}
	}
	for name, encode := range map[string]func() ([]byte, error){
		"decoded": func() ([]byte, error) { return AppendEncode(nil, snap) },
		"opened":  func() ([]byte, error) { return opened.appendEncode(nil) },
	} {
		if got, err := encode(); err != nil || !bytes.Equal(got, orig) {
			t.Fatalf("%s snapshot no longer re-encodes to its input (err %v)", name, err)
		}
	}
}

// TestLoadFileConcurrent: goroutines loading different weeks share the
// pool's read buffers, and each still gets exactly its own file back.
func TestLoadFileConcurrent(t *testing.T) {
	dir := t.TempDir()
	const weeks = 8
	files := make([][]byte, weeks)
	paths := make([]string, weeks)
	for i := range files {
		snap := synthetic()
		snap.Result.Week = 40 + i
		for j := 0; j < 40*i; j++ {
			ip := packet.MakeIPv4(192, 168, byte(j>>8), byte(j))
			snap.Result.Servers[ip] = &webserver.Server{IP: ip, HTTP: true, Bytes: uint64(j * (i + 1)), Hosts: []string{"h.example"}}
		}
		buf, err := AppendEncode(nil, snap)
		if err != nil {
			t.Fatal(err)
		}
		files[i], paths[i] = buf, filepath.Join(dir, FileName(40+i))
		if err := os.WriteFile(paths[i], buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < weeks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				snap, err := LoadFileFS(vfs.Default, paths[i])
				if err != nil {
					t.Errorf("week %d: %v", i, err)
					return
				}
				opened, err := OpenFileFS(vfs.Default, paths[i])
				if err != nil {
					t.Errorf("week %d: %v", i, err)
					return
				}
				a, errA := AppendEncode(nil, snap)
				b, errB := opened.appendEncode(nil)
				if errA != nil || errB != nil || !bytes.Equal(a, files[i]) || !bytes.Equal(b, files[i]) {
					t.Errorf("week %d, round %d: a load re-encodes to other bytes than its file", i, round)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
