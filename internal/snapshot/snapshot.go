// Package snapshot persists one fully analyzed week — every registered
// analyzer's product, the dissection cascade counts and the week's
// source binding — in a versioned, checksummed binary container, so a
// serving layer can reload an analyzed week in milliseconds instead of
// re-running the capture→dissect→analyze pipeline.
//
// The container is the multi-section "IXPSNAP2":
//
//	file    := "IXPSNAP2" nSections:u32 tableLen:u32 tableCrc:u32 entry* payload*
//	entry   := nameLen:u8 name version:u16 payLen:u32 crc:u32
//	payload := one section's bytes, in table order
//
// Sections are sorted by name, each payload carries its own CRC32C, and
// tableCrc covers the entry region itself (verified before any entry is
// parsed), so a flipped bit anywhere past the fixed header surfaces as
// ErrChecksum — naming the damaged section when it hit a payload —
// instead of decoding to a silently wrong product. The known
// sections are "meta" (the capture digest binding), "counts" (the
// cascade tallies), one per builtin analyzer ("webserver",
// "visibility", "links") and "attributes" (the origin AS, prefix and
// country of every IP the products mention, as the week's substrates
// resolved them, so a reader needs no world to resolve them again);
// unknown section names round-trip untouched
// through Extra, while a known section with an unrecognized version
// fails with the typed ErrSectionVersion. Everything is encoded
// deterministically (sorted sections, sorted servers/IPs/flows), so
// encoding the same snapshot twice yields byte-identical files — the
// supervisor's crash-resume digests and the golden equivalence tests
// depend on that. Any other magic, the single-section container of
// older builds included, fails with ErrBadMagic; ixpmine re-mines such a
// week.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ixplens/internal/analysis"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/webserver"
	"ixplens/internal/vfs"
)

var magicV2 = [8]byte{'I', 'X', 'P', 'S', 'N', 'A', 'P', '2'}

// headerLenV2 is magic(8) + nSections(4) + tableLen(4) + tableCrc(4).
const headerLenV2 = 20

// maxPayload bounds a declared section payload so a corrupt length
// field cannot trigger a huge allocation before the checksum is even
// read.
const maxPayload = 1 << 28

// maxSections bounds the section count; the table is tiny in practice.
const maxSections = 1 << 10

// Sentinel errors, testable with errors.Is.
var (
	// ErrBadMagic marks a file that is not a snapshot container.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrChecksum marks a snapshot whose payload does not verify.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrFormat marks a payload that verified but does not decode —
	// a truncated write or a newer field layout.
	ErrFormat = errors.New("snapshot: malformed payload")
	// ErrSectionVersion marks a known section carrying a version this
	// build cannot decode — written by a newer build, or corrupted in a
	// way the checksum cannot catch (it covers the payload, not the
	// table entry).
	ErrSectionVersion = errors.New("snapshot: unsupported section version")
	// ErrReread marks a section OpenFileFS left in its file that could
	// not be read back on first use: the file is gone, or shorter.
	ErrReread = errors.New("snapshot: section re-read failed")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Known non-analyzer section names.
const (
	secMeta   = "meta"
	secCounts = "counts"
)

// Section is one named, versioned unit of a container that this
// build has no typed decoding for. Decode preserves unknown sections
// here and AppendEncode writes them back, so a snapshot written by a
// build with more analyzers survives a rewrite by this one.
type Section struct {
	Name    string
	Version uint16
	Payload []byte
}

// Snapshot is one analyzed week with its identification result built:
// what Decode, LoadFileFS and FromProducts return.
//
// A Snapshot is immutable to its callers and safe for concurrent use.
// Decode verifies the whole container up front — every checksum, the
// framing, the section order, the required sections and every known
// section's version — but decodes the visibility, links and attributes
// products only on first use: each is held as a private copy of its
// verified payload until its accessor first asks for it, decoded once
// (concurrent first callers share that one decode and its result), and
// the copy is dropped once the product decodes. A snapshot built by
// FromProducts holds its products decoded.
type Snapshot struct {
	// Result is the week's identification outcome, including EstLoss.
	Result *webserver.Result
	// Counts is the week's dissection cascade accounting.
	Counts dissect.Counts
	// SourceDigest optionally records the sha256 hex digest of the
	// capture bytes the analysis consumed (computed by the analysis
	// pass as it read them; the same value the campaign manifest records
	// for an undamaged file), so a reader can detect a snapshot gone
	// stale after the capture was rewritten. Empty means unknown.
	SourceDigest string
	// Extra carries sections of analyzers this build does not know,
	// preserved byte-for-byte.
	Extra []Section

	products
}

// Opened is one analyzed week verified exactly as Decode verifies it,
// with its server list indexed but not built: what Open and OpenFileFS
// return. Open holds its products as copies of their payloads;
// OpenFileFS leaves them in the file until first use. Counts and
// summaries come from the index; Server decodes one record; Result
// builds the full identification result once, on first use, and from
// then on the opened week holds the result instead of its webserver
// section's bytes. The result is reachable only through Result, never
// as a field left nil.
//
// An Opened is immutable to its callers and safe for concurrent use.
type Opened struct {
	// Counts, SourceDigest and Extra are the Snapshot's fields.
	Counts       dissect.Counts
	SourceDigest string
	Extra        []Section

	products
	ws *serverList
}

// products holds the optional products of a week — the §3 per-IP
// traffic product, the §5 peering-flow product and the attributes of
// every IP they mention — each nil when the snapshot lacks it (the
// analyzer did not run, or an older build wrote the snapshot).
type products struct {
	vis   *product[analysis.VisibilityProduct]
	links *product[analysis.LinksProduct]
	attrs *product[analysis.AttributesProduct]
}

// product is one optional product of a snapshot: held decoded, as its
// verified section payload, or as the place of that payload in the file
// it was verified in; get decodes it on first use.
type product[T any] struct {
	version uint16
	// raw is the undecoded payload, nil once it decoded (or when the
	// product was built decoded, or left in its file). A failed decode
	// keeps it, so AppendEncode can still write the section back
	// unchanged.
	raw atomic.Pointer[[]byte]
	// src, when set, is where the section's verified payload lies on
	// disk; get reads it from there instead of holding raw.
	src    *fileSection
	decode func(uint16, []byte) (*T, error)
	once   sync.Once
	val    *T
	err    error
}

// fileSection is one section left in the file it was verified in: the
// file, the payload's offset and length, and its CRC32C.
type fileSection struct {
	file   *fileRef
	off    int64
	length uint32
	crc    uint32
}

// fileRef is a snapshot file as OpenFileFS opened it.
type fileRef struct {
	fsys vfs.FS
	path string
}

// read re-reads the section's payload and checks it against the CRC it
// verified with at open. A file that can no longer be read fails with
// ErrReread; one that now holds other bytes there, with ErrChecksum.
func (s *fileSection) read(name string) ([]byte, error) {
	f, err := s.file.fsys.Open(s.file.path)
	if err != nil {
		return nil, fmt.Errorf("%w: section %q: %v", ErrReread, name, err)
	}
	defer f.Close()
	buf := make([]byte, s.length)
	if n, err := f.ReadAt(buf, s.off); n < len(buf) {
		return nil, fmt.Errorf("%w: section %q of %s: %v", ErrReread, name, s.file.path, err)
	}
	if crc32.Checksum(buf, castagnoli) != s.crc {
		return nil, fmt.Errorf("%w: section %q changed on disk since %s was opened", ErrChecksum, name, s.file.path)
	}
	return buf, nil
}

// decoded wraps a product that needs no decoding; nil stays absent.
func decoded[T any](version uint16, val *T) *product[T] {
	if val == nil {
		return nil
	}
	return &product[T]{version: version, val: val}
}

// pending wraps a verified payload: copied, so the product does not pin
// the buffer it was read from, or — when src says where the buffer's
// file holds it — left there, to be read again on first use.
func pending[T any](version uint16, payload []byte, src *fileSection, decode func(uint16, []byte) (*T, error)) *product[T] {
	p := &product[T]{version: version, decode: decode, src: src}
	if src == nil {
		raw := bytes.Clone(payload)
		p.raw.Store(&raw)
	}
	return p
}

// get returns the product, decoding it on the first call. A nil
// product is absent: (nil, nil).
func (p *product[T]) get(name string) (*T, error) {
	if p == nil {
		return nil, nil
	}
	p.once.Do(func() {
		raw := p.raw.Load()
		if raw == nil {
			if p.src == nil {
				return
			}
			payload, err := p.src.read(name)
			if err != nil {
				p.err = err
				return
			}
			raw = &payload
		}
		if p.val, p.err = p.decode(p.version, *raw); p.err != nil {
			p.err = mapAnalysisErr(name, p.version, p.err)
			p.raw.Store(raw) // a payload read from the file is kept too
			return
		}
		p.raw.Store(nil)
	})
	return p.val, p.err
}

// section is the product's container section: its undecoded payload
// as verified, or else the encoding of the decoded product (read from
// its file first, if it was left there).
func (p *product[T]) section(name string, encode func(*T, []byte) ([]byte, error)) (Section, error) {
	if raw := p.raw.Load(); raw != nil {
		return Section{Name: name, Version: p.version, Payload: *raw}, nil
	}
	val, err := p.get(name)
	if raw := p.raw.Load(); raw != nil {
		// Read from its file but undecodable: written back as read.
		return Section{Name: name, Version: p.version, Payload: *raw}, nil
	}
	if err != nil {
		return Section{}, err
	}
	payload, err := encode(val, nil)
	return Section{Name: name, Version: p.version, Payload: payload}, err
}

// Visibility returns the §3 per-IP traffic product, decoding it on first
// use: (nil, nil) when the snapshot carries none, and an error wrapping
// ErrFormat or ErrSectionVersion when its section does not decode.
func (p *products) Visibility() (*analysis.VisibilityProduct, error) {
	return p.vis.get(analysis.NameVisibility)
}

// Links returns the §5 peering-flow product, decoding it on first use,
// with Visibility's contract.
func (p *products) Links() (*analysis.LinksProduct, error) {
	return p.links.get(analysis.NameLinks)
}

// Attributes returns the attributes of every IP the week's products
// mention, decoding them on first use, with Visibility's contract.
func (p *products) Attributes() (*analysis.AttributesProduct, error) {
	return p.attrs.get(analysis.NameAttributes)
}

// has reports whether the named product other than the webserver
// result is present, among the typed products or in extra.
func (p *products) has(name string, extra []Section) bool {
	switch name {
	case analysis.NameVisibility:
		return p.vis != nil
	case analysis.NameLinks:
		return p.links != nil
	case analysis.NameAttributes:
		return p.attrs != nil
	}
	for i := range extra {
		if extra[i].Name == name {
			return true
		}
	}
	return false
}

// sections appends the products' container sections to secs.
func (p *products) sections(secs []Section) ([]Section, error) {
	if p.vis != nil {
		sec, err := p.vis.section(analysis.NameVisibility, (*analysis.VisibilityProduct).AppendEncode)
		if err != nil {
			return secs, err
		}
		secs = append(secs, sec)
	}
	if p.links != nil {
		sec, err := p.links.section(analysis.NameLinks, (*analysis.LinksProduct).AppendEncode)
		if err != nil {
			return secs, err
		}
		secs = append(secs, sec)
	}
	if p.attrs != nil {
		sec, err := p.attrs.section(analysis.NameAttributes, (*analysis.AttributesProduct).AppendEncode)
		if err != nil {
			return secs, err
		}
		secs = append(secs, sec)
	}
	return secs, nil
}

// serverList is an opened week's webserver section: its header and
// server index from the verified payload, and the full result built
// from them once, on first use.
type serverList struct {
	hdr analysis.ResultHeader
	// raw is the verified payload refs index, nil once the result is
	// built.
	raw       atomic.Pointer[[]byte]
	refs      []analysis.ServerRef
	res       *webserver.Result
	buildOnce sync.Once
}

// result returns the full result, building it from the payload on the
// first call and dropping the payload after.
func (l *serverList) result() *webserver.Result {
	l.buildOnce.Do(func() {
		if raw := l.raw.Load(); raw != nil {
			l.res = analysis.BuildResult(l.hdr, l.refs, *raw)
			l.raw.Store(nil)
		}
	})
	return l.res
}

// server returns the record ref names: decoded from the payload until
// the result is built, the built result's after.
func (l *serverList) server(ref analysis.ServerRef) *webserver.Server {
	if raw := l.raw.Load(); raw != nil {
		return analysis.DecodeServer(*raw, ref)
	}
	return l.result().Servers[ref.IP]
}

// payload is the section payload: as verified until the result is
// built, the built result's encoding after.
func (l *serverList) payload() ([]byte, error) {
	if raw := l.raw.Load(); raw != nil {
		return *raw, nil
	}
	return analysis.AppendResult(nil, l.result())
}

// Header returns the week's result header: its week, loss annotation,
// HTTPS funnel, observed IPs and server traffic.
func (o *Opened) Header() analysis.ResultHeader { return o.ws.hdr }

// Servers returns the week's server index, one ref per server in IP
// order. The slice is shared and must not be modified.
func (o *Opened) Servers() []analysis.ServerRef { return o.ws.refs }

// Server returns the server record ref names, ref being one of Servers.
// The record is shared and must not be modified.
func (o *Opened) Server(ref analysis.ServerRef) *webserver.Server { return o.ws.server(ref) }

// Result returns the full identification result, built on the first
// call (concurrent first callers share the one build). The result is
// shared and must not be modified.
func (o *Opened) Result() *webserver.Result { return o.ws.result() }

// Snapshot materializes the opened week: its result built, its products
// shared with o.
func (o *Opened) Snapshot() *Snapshot {
	return &Snapshot{Result: o.Result(), Counts: o.Counts, SourceDigest: o.SourceDigest, Extra: o.Extra, products: o.products}
}

// HasProduct reports whether the week carries the named analyzer's
// product, or (for analysis.NameAttributes) the attributes section. It
// answers from the section table and decodes nothing.
func (o *Opened) HasProduct(name string) bool {
	return name == analysis.NameWebserver || o.products.has(name, o.Extra)
}

// appendEncode appends the week's container to dst. An unbuilt server
// list is written back as the bytes it was verified as.
func (o *Opened) appendEncode(dst []byte) ([]byte, error) {
	ws, err := o.ws.payload()
	if err != nil {
		return dst, err
	}
	return appendContainer(dst, o.SourceDigest, &o.Counts, ws, &o.products, o.Extra)
}

// FileName returns the conventional snapshot file name for a week.
func FileName(isoWeek int) string {
	return fmt.Sprintf("week-%02d.snap", isoWeek)
}

// FromProducts assembles a snapshot from one fused analysis run: typed
// fields for the builtin products, encoded Extra sections for any
// analyzer this package has no field for — every registered product is
// persisted either way. SourceDigest is left for the caller to bind.
func FromProducts(p *analysis.Products, counts dissect.Counts) (*Snapshot, error) {
	snap := &Snapshot{Counts: counts}
	for _, np := range p.All() {
		switch prod := np.P.(type) {
		case *analysis.WebserverProduct:
			snap.Result = prod.Res
		case *analysis.VisibilityProduct:
			snap.vis = decoded(np.Version, prod)
		case *analysis.LinksProduct:
			snap.links = decoded(np.Version, prod)
		default:
			payload, err := np.P.AppendEncode(nil)
			if err != nil {
				return nil, fmt.Errorf("snapshot: encoding product %q: %w", np.Name, err)
			}
			snap.Extra = append(snap.Extra, Section{Name: np.Name, Version: np.Version, Payload: payload})
		}
	}
	if snap.Result == nil {
		return nil, errors.New("snapshot: product set lacks the webserver result")
	}
	snap.attrs = decoded(analysis.AttributesVersion, p.Attributes())
	return snap, nil
}

// HasProduct reports whether the snapshot carries the named analyzer's
// product, or (for analysis.NameAttributes) the attributes section — the
// staleness signal the supervising layer uses to re-analyze
// narrower-registry or attribute-less snapshots. It answers from the
// section table and decodes nothing.
func (s *Snapshot) HasProduct(name string) bool {
	if name == analysis.NameWebserver {
		return s.Result != nil
	}
	return s.products.has(name, s.Extra)
}

// appendCounts appends the cascade tallies (8 cascade ints + 3 byte
// totals, all u64 big-endian).
func appendCounts(b []byte, c *dissect.Counts) []byte {
	for _, v := range []int{c.Total, c.Undecodable, c.NonIPv4, c.Local,
		c.NonTCPUDP, c.PeeringTCP, c.PeeringUDP, c.PanicQuarantined} {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	b = binary.BigEndian.AppendUint64(b, c.TotalBytes)
	b = binary.BigEndian.AppendUint64(b, c.PeeringTCPBytes)
	b = binary.BigEndian.AppendUint64(b, c.PeeringUDPBytes)
	return b
}

func readCounts(cur *analysis.Cursor, c *dissect.Counts) {
	for _, dst := range []*int{&c.Total, &c.Undecodable, &c.NonIPv4, &c.Local,
		&c.NonTCPUDP, &c.PeeringTCP, &c.PeeringUDP, &c.PanicQuarantined} {
		*dst = int(cur.U64())
	}
	c.TotalBytes = cur.U64()
	c.PeeringTCPBytes = cur.U64()
	c.PeeringUDPBytes = cur.U64()
}

// AppendEncode appends the snapshot's container to dst and returns the
// extended slice.
func AppendEncode(dst []byte, snap *Snapshot) ([]byte, error) {
	if snap == nil || snap.Result == nil {
		return dst, errors.New("snapshot: nil result")
	}
	ws, err := analysis.AppendResult(nil, snap.Result)
	if err != nil {
		return dst, err
	}
	return appendContainer(dst, snap.SourceDigest, &snap.Counts, ws, &snap.products, snap.Extra)
}

// appendContainer appends the container of one week's sections:
// meta, counts, the webserver payload ws, the typed products and extra.
func appendContainer(dst []byte, digest string, counts *dissect.Counts, ws []byte, p *products, extra []Section) ([]byte, error) {
	secs := make([]Section, 0, 5+len(extra))
	secs = append(secs,
		Section{Name: secMeta, Version: 1, Payload: analysis.AppendString(nil, digest)},
		Section{Name: secCounts, Version: 1, Payload: appendCounts(nil, counts)},
		Section{Name: analysis.NameWebserver, Version: 1, Payload: ws},
	)
	secs, err := p.sections(secs)
	if err != nil {
		return dst, err
	}
	secs = append(secs, extra...)
	return AppendSections(dst, secs)
}

// AppendSections appends an IXPSNAP2 container holding secs to dst and
// returns the extended slice. The sections are written sorted by name
// (secs is sorted in place); a duplicate or out-of-range name, or an
// oversized payload, fails. Snapshots and the campaign's inputs file
// are both this container.
func AppendSections(dst []byte, secs []Section) ([]byte, error) {
	sort.Slice(secs, func(i, j int) bool { return secs[i].Name < secs[j].Name })
	for i := range secs {
		if i > 0 && secs[i].Name == secs[i-1].Name {
			return dst, fmt.Errorf("snapshot: duplicate section %q", secs[i].Name)
		}
		if len(secs[i].Name) == 0 || len(secs[i].Name) > 255 {
			return dst, fmt.Errorf("snapshot: section name %q out of range", secs[i].Name)
		}
		if len(secs[i].Payload) > maxPayload {
			return dst, fmt.Errorf("snapshot: section %q payload of %d bytes", secs[i].Name, len(secs[i].Payload))
		}
	}

	var table []byte
	for i := range secs {
		table = append(table, byte(len(secs[i].Name)))
		table = append(table, secs[i].Name...)
		table = binary.BigEndian.AppendUint16(table, secs[i].Version)
		table = binary.BigEndian.AppendUint32(table, uint32(len(secs[i].Payload)))
		table = binary.BigEndian.AppendUint32(table, crc32.Checksum(secs[i].Payload, castagnoli))
	}
	size := headerLenV2 + len(table)
	for i := range secs {
		size += len(secs[i].Payload)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, magicV2[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(secs)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(table)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(table, castagnoli))
	dst = append(dst, table...)
	for i := range secs {
		dst = append(dst, secs[i].Payload...)
	}
	return dst, nil
}

// Decode parses a full container from buf and builds its result: Open,
// then Opened.Snapshot. The snapshot keeps no
// reference to buf.
func Decode(buf []byte) (*Snapshot, error) {
	o, err := open(buf, openOpts{})
	if err != nil {
		return nil, err
	}
	return o.Snapshot(), nil
}

// Open verifies a full container from buf exactly as Decode does —
// every checksum, the framing, the section order, the required
// sections, every known section's version and the server list's
// encoding — and indexes the server list without building it. The
// opened week keeps no reference to buf.
func Open(buf []byte) (*Opened, error) {
	return open(buf, openOpts{keepServers: true})
}

// openOpts says what an opened week keeps of the buffer it was
// verified from.
type openOpts struct {
	// keepServers copies the webserver payload for an unbuilt server
	// list to outlive buf; Decode builds the list before returning and
	// needs no copy.
	keepServers bool
	// file, when set, is the file buf was read from: the product
	// sections stay there, to be read again on first use, instead of
	// being copied.
	file *fileRef
}

// Sections verifies an IXPSNAP2 container — the header, the section
// table's checksum and framing, the name order and every payload's
// CRC32C — and returns its sections in table order, each payload
// aliasing buf. It knows no section names: callers check which
// sections they require.
func Sections(buf []byte) ([]Section, error) {
	secs, err := readSections(buf)
	if err != nil {
		return nil, err
	}
	out := make([]Section, len(secs))
	for i := range secs {
		out[i] = secs[i].Section
	}
	return out, nil
}

// rawSection is one verified section of a container: its payload
// aliases the buffer it was read from, at offset off.
type rawSection struct {
	Section
	off int64
	crc uint32
}

// readSections is the one container walk behind Sections and open.
func readSections(buf []byte) ([]rawSection, error) {
	if len(buf) < 8 || [8]byte(buf[:8]) != magicV2 {
		return nil, ErrBadMagic
	}
	cur := analysis.NewCursor(buf[8:])
	n := int(cur.U32())
	tableLen := int(cur.U32())
	tableCrc := cur.U32()
	if cur.Bad() || n > maxSections {
		return nil, fmt.Errorf("%w: section count %d", ErrFormat, n)
	}
	if tableLen > cur.Len() {
		return nil, fmt.Errorf("%w: truncated section table", ErrFormat)
	}
	table := cur.Take(tableLen)
	if crc32.Checksum(table, castagnoli) != tableCrc {
		return nil, fmt.Errorf("%w: section table", ErrChecksum)
	}
	secs := make([]rawSection, n)
	lengths := make([]uint32, n)
	total := 0
	tcur := analysis.NewCursor(table)
	for i := range secs {
		nameLen := int(tcur.U8())
		secs[i].Name = string(tcur.Take(nameLen))
		secs[i].Version = tcur.U16()
		lengths[i] = tcur.U32()
		secs[i].crc = tcur.U32()
		if tcur.Bad() {
			return nil, fmt.Errorf("%w: truncated section table", ErrFormat)
		}
		if secs[i].Name == "" {
			return nil, fmt.Errorf("%w: empty section name", ErrFormat)
		}
		// AppendSections writes sections sorted by name; any other order
		// (a duplicate included) would not survive a rewrite unchanged.
		if i > 0 && secs[i].Name <= secs[i-1].Name {
			return nil, fmt.Errorf("%w: section %q out of order", ErrFormat, secs[i].Name)
		}
		if lengths[i] > maxPayload {
			return nil, fmt.Errorf("%w: section %q payload of %d bytes",
				ErrFormat, secs[i].Name, lengths[i])
		}
		total += int(lengths[i])
	}
	if tcur.Len() != 0 {
		return nil, fmt.Errorf("%w: %d bytes of section table beyond %d entries",
			ErrFormat, tcur.Len(), n)
	}
	if total != cur.Len() {
		return nil, fmt.Errorf("%w: section table frames %d bytes, %d present",
			ErrFormat, total, cur.Len())
	}
	for i := range secs {
		secs[i].off = int64(len(buf) - cur.Len())
		secs[i].Payload = cur.Take(int(lengths[i]))
		if crc32.Checksum(secs[i].Payload, castagnoli) != secs[i].crc {
			return nil, fmt.Errorf("%w: section %q", ErrChecksum, secs[i].Name)
		}
	}
	return secs, nil
}

// open is the one verification path behind Open, Decode and OpenFileFS.
func open(buf []byte, opts openOpts) (*Opened, error) {
	secs, err := readSections(buf)
	if err != nil {
		return nil, err
	}
	o := &Opened{}
	var sawMeta, sawCounts bool
	for i := range secs {
		e := &secs[i]
		payload := e.Payload
		var src *fileSection
		if opts.file != nil {
			src = &fileSection{file: opts.file, off: e.off, length: uint32(len(payload)), crc: e.crc}
		}
		switch e.Name {
		case secMeta:
			if e.Version != 1 {
				return nil, sectionVersionErr(e.Name, e.Version)
			}
			sc := analysis.NewCursor(payload)
			o.SourceDigest = sc.Str()
			if sc.Bad() || sc.Len() != 0 {
				return nil, fmt.Errorf("%w: malformed meta section", ErrFormat)
			}
			sawMeta = true
		case secCounts:
			if e.Version != 1 {
				return nil, sectionVersionErr(e.Name, e.Version)
			}
			sc := analysis.NewCursor(payload)
			readCounts(sc, &o.Counts)
			if sc.Bad() || sc.Len() != 0 {
				return nil, fmt.Errorf("%w: malformed counts section", ErrFormat)
			}
			sawCounts = true
		case analysis.NameWebserver:
			hdr, refs, err := analysis.IndexResult(e.Version, payload)
			if err != nil {
				return nil, mapAnalysisErr(e.Name, e.Version, err)
			}
			if opts.keepServers {
				payload = bytes.Clone(payload)
			}
			o.ws = &serverList{hdr: hdr, refs: refs}
			o.ws.raw.Store(&payload)
		case analysis.NameVisibility:
			if e.Version != analysis.Visibility().Version() {
				return nil, sectionVersionErr(e.Name, e.Version)
			}
			o.vis = pending(e.Version, payload, src, analysis.DecodeVisibility)
		case analysis.NameLinks:
			if e.Version != analysis.Links().Version() {
				return nil, sectionVersionErr(e.Name, e.Version)
			}
			o.links = pending(e.Version, payload, src, analysis.DecodeLinks)
		case analysis.NameAttributes:
			if e.Version != analysis.AttributesVersion {
				return nil, sectionVersionErr(e.Name, e.Version)
			}
			o.attrs = pending(e.Version, payload, src, analysis.DecodeAttributes)
		default:
			// An analyzer this build does not know: preserve the section
			// so a rewrite does not lose it.
			o.Extra = append(o.Extra, Section{Name: e.Name, Version: e.Version, Payload: bytes.Clone(payload)})
		}
	}
	if !sawMeta || !sawCounts || o.ws == nil {
		return nil, fmt.Errorf("%w: missing required section (meta/counts/webserver)", ErrFormat)
	}
	return o, nil
}

func sectionVersionErr(name string, version uint16) error {
	return fmt.Errorf("%w: section %q v%d", ErrSectionVersion, name, version)
}

// mapAnalysisErr translates a product codec failure into this package's
// typed errors.
func mapAnalysisErr(name string, version uint16, err error) error {
	if errors.Is(err, analysis.ErrVersion) {
		return sectionVersionErr(name, version)
	}
	return fmt.Errorf("%w: section %q: %v", ErrFormat, name, err)
}

// SaveFileFS writes snap to path through fsys atomically: encode to a
// temp file in the same directory, write, fsync, close (all checked — a
// full disk must not leave a truncated snapshot that parses as damage),
// rename into place, then fsync the parent directory so the rename
// itself survives power loss. Failed writes remove their temp file. It
// returns the sha256 hex digest of the encoded bytes it INTENDED to
// persist; callers that must rule out silent write-back corruption (a
// lying fsync) compare it against a fresh read-back digest of path.
func SaveFileFS(fsys vfs.FS, path string, snap *Snapshot) (string, error) {
	buf, err := AppendEncode(nil, snap)
	if err != nil {
		return "", err
	}
	if err := vfs.WriteFileAtomic(fsys, path, buf, ".snap-*"); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// readBufs recycles the buffers snapshot files are read into. Open and
// Decode copy everything a week keeps — strings into one builder,
// product and webserver payloads and Extra sections cloned — and
// OpenFileFS leaves the products in the file, so a buffer goes back to
// the pool as soon as its file is verified.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// readPooled reads the file at path through fsys into a pooled buffer
// and hands it to decode, which must not keep it.
func readPooled[T any](fsys vfs.FS, path string, decode func([]byte) (T, error)) (T, error) {
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	buf, err := vfs.ReadFileInto(fsys, path, *bp)
	if err != nil {
		var zero T
		return zero, err
	}
	*bp = buf
	return decode(buf)
}

// LoadFileFS reads and decodes the snapshot at path through fsys.
func LoadFileFS(fsys vfs.FS, path string) (*Snapshot, error) {
	return readPooled(fsys, path, Decode)
}

// OpenFileFS reads and opens the snapshot at path through fsys,
// verifying it exactly as Open does. It copies only the server list out
// of the read buffer: the product sections stay in the file, and each
// is read again through fsys on first use and checked against the CRC
// it verified with here. A section that can no longer be read then
// fails with ErrReread, one whose bytes changed with ErrChecksum.
func OpenFileFS(fsys vfs.FS, path string) (*Opened, error) {
	file := &fileRef{fsys: fsys, path: path}
	return readPooled(fsys, path, func(buf []byte) (*Opened, error) {
		return open(buf, openOpts{keepServers: true, file: file})
	})
}
