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
	"testing"

	"ixplens/internal/analysis"
	"ixplens/internal/certsim"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/visibility"
	"ixplens/internal/core/webserver"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

// syntheticV1 builds a snapshot with only the fields the legacy
// IXPSNAP1 container can carry, exercising every field shape: flags in
// all combinations, empty and populated sets, certificate alt names, a
// non-zero loss annotation.
func syntheticV1() *Snapshot {
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

// synthetic extends syntheticV1 with every multi-section shape: both
// optional analyzer products (including a zero-byte visibility entry)
// and an unknown Extra section from a hypothetical future analyzer.
func synthetic() *Snapshot {
	snap := syntheticV1()
	snap.Visibility = &analysis.VisibilityProduct{PerIP: []visibility.IPTraffic{
		{IP: packet.MakeIPv4(10, 0, 0, 1), Bytes: 99},
		{IP: packet.MakeIPv4(10, 0, 0, 2), Bytes: 0},
		{IP: packet.MakeIPv4(172, 16, 0, 9), Bytes: 1 << 33},
	}}
	snap.Links = &analysis.LinksProduct{Flows: []analysis.Flow{
		{FlowKey: analysis.FlowKey{Src: packet.MakeIPv4(10, 0, 0, 1), Dst: packet.MakeIPv4(172, 16, 0, 9), In: 3, Out: 7}, Bytes: 4096, Samples: 2},
		{FlowKey: analysis.FlowKey{Src: packet.MakeIPv4(10, 0, 0, 2), Dst: packet.MakeIPv4(10, 0, 0, 1), In: 7, Out: -1}, Bytes: 1 << 20, Samples: 9},
	}}
	snap.Extra = []Section{{Name: "zz-future", Version: 3, Payload: []byte{1, 2, 3, 4}}}
	return snap
}

// appendEncodeV1 appends the legacy IXPSNAP1 container — byte-identical
// to what pre-registry builds wrote, so the reader can be tested against
// fresh v1 encodings as well as the committed fixture. It carries only
// the identification result, counts and digest; visibility/links/Extra
// products are not representable in v1 and are dropped.
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
	dst = append(dst, magicV1[:]...)
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
	if !reflect.DeepEqual(snap, got) {
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

func TestRoundTripV1(t *testing.T) {
	snap := syntheticV1()
	buf, err := appendEncodeV1(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:8]) != "IXPSNAP1" {
		t.Fatalf("v1 writer emitted magic %q", buf[:8])
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("v1 round trip diverged:\nwant %+v\ngot  %+v", snap, got)
	}
}

// TestGoldenV1Fixture pins backward compatibility against a committed
// file written by the pre-registry (single-section) snapshot writer:
// it must still decode, and the test-side v1 encoder must reproduce it
// byte-for-byte.
func TestGoldenV1Fixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "week-45.v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(fixture)
	if err != nil {
		t.Fatalf("legacy fixture no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(snap, syntheticV1()) {
		t.Fatalf("legacy fixture decoded to unexpected snapshot:\n%+v", snap)
	}
	reenc, err := appendEncodeV1(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixture, reenc) {
		t.Fatal("appendEncodeV1 no longer byte-identical to the legacy writer")
	}
}

func TestRoundTripViaReaderWriter(t *testing.T) {
	for _, tc := range []struct {
		name   string
		encode func([]byte, *Snapshot) ([]byte, error)
		snap   *Snapshot
	}{
		{"v2", AppendEncode, synthetic()},
		{"v1", appendEncodeV1, syntheticV1()},
	} {
		buf, err := tc.encode(nil, tc.snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(tc.snap, got) {
			t.Fatalf("%s: reader round trip diverged", tc.name)
		}
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
	if !reflect.DeepEqual(snap, got) {
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
		{"v1", appendEncodeV1, syntheticV1(), headerLenV1},
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
		if _, err := Read(bytes.NewReader(buf)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("Read(%q): got %v, want ErrBadMagic", buf, err)
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
	fixture, err := os.ReadFile(filepath.Join("testdata", "week-45.v1.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	v1, err := appendEncodeV1(nil, syntheticV1())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	for _, snap := range []*Snapshot{syntheticV1(), synthetic()} {
		buf, err := AppendEncode(nil, snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			for _, typed := range []error{ErrBadMagic, ErrChecksum, ErrFormat, ErrSectionVersion} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped error: %v", err)
		}
		buf, err := AppendEncode(nil, snap)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(snap, got) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, snap)
		}
	})
}

func TestHasProduct(t *testing.T) {
	snap := synthetic()
	for _, name := range []string{"webserver", "visibility", "links", "zz-future"} {
		if !snap.HasProduct(name) {
			t.Fatalf("HasProduct(%q) = false on full snapshot", name)
		}
	}
	v1 := syntheticV1()
	if !v1.HasProduct("webserver") {
		t.Fatal("v1 snapshot lost its webserver product")
	}
	for _, name := range []string{"visibility", "links", "nope"} {
		if v1.HasProduct(name) {
			t.Fatalf("HasProduct(%q) = true on v1 snapshot", name)
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
		if !reflect.DeepEqual(snap, got) {
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
