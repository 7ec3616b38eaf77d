package analysis

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"ixplens/internal/core/churn"
	"ixplens/internal/core/webserver"
	"ixplens/internal/entity"
	"ixplens/internal/geo"
	"ixplens/internal/packet"
	"ixplens/internal/routing"
)

// NameAttributes is the snapshot section a run's per-IP attributes are
// persisted as. It is no analyzer: every run writes it at Finish, from
// the entity table its analyzers resolved through.
const NameAttributes = "attributes"

// AttributesVersion is the attributes encoding version DecodeAttributes
// understands.
const AttributesVersion uint16 = 1

// Origin is one matched RIB prefix with the AS announcing it.
type Origin struct {
	Prefix routing.Prefix
	ASN    uint32
}

// IPAttrs are one IP's resolved attributes, as the week's entity table
// resolved them: the origin AS and longest-match prefix (zero when the
// RIB does not cover the address) and the geolocated country code
// (empty when the geo DB does not). The region is geo.Region(Country).
type IPAttrs struct {
	ASN     uint32
	Prefix  routing.Prefix
	Country string
}

// AttributesProduct is the attributes of every IP a week's products
// mention — each server and each visibility IP — frozen with the week,
// so a reader resolves them without the routing and geolocation
// substrates. Origins and countries are dictionaries; each IP holds an
// index into both.
type AttributesProduct struct {
	ips     []packet.IPv4Addr // ascending
	origin  []uint32          // per IP: index into origins
	country []uint16          // per IP: index into countries
	// origins and countries are sorted, with the "none" entry (a zero
	// Origin, the empty code) at index 0.
	origins   []Origin
	countries []string
}

// AttributesOf resolves ips (ascending, unique) through table. At a
// run's Finish every IP its products mention was resolved while
// observing, so this only reads the table's memo — through Lookup,
// which counts no memo hit: it resolves no traffic.
func AttributesOf(table *entity.Table, ips []packet.IPv4Addr) *AttributesProduct {
	return buildAttributes(table, ips, func(i int) entity.Attrs {
		if id, ok := table.Lookup(ips[i]); ok {
			return table.Attrs(id)
		}
		_, a := table.ResolveAttrs(ips[i])
		return a
	})
}

// attributesByID is AttributesOf for the visibility product's IPs, whose
// table IDs the visibility state kept (ids, parallel to vp.PerIP): their
// attributes are read by ID, with no address lookup.
func attributesByID(table *entity.Table, vp *VisibilityProduct, ids []entity.ID) *AttributesProduct {
	view := table.AttrsView()
	return buildAttributes(table, vp.ips(), func(i int) entity.Attrs { return view[ids[i]] })
}

// buildAttributes builds the product over ips, attrs(i) being the
// table's attributes of ips[i]; it asks for them in order.
func buildAttributes(table *entity.Table, ips []packet.IPv4Addr, attrs func(i int) entity.Attrs) *AttributesProduct {
	p := &AttributesProduct{
		ips:       ips,
		origin:    make([]uint32, len(ips)),
		country:   make([]uint16, len(ips)),
		origins:   []Origin{{}},
		countries: []string{""},
	}
	// Dictionary indices by the table's dense prefix and country IDs
	// (0 = not yet in the dictionary). A prefix ID is set exactly when
	// the origin AS is; an AS-less match, which a RIB should not hold,
	// takes the map instead.
	byPrefix := make([]uint32, table.NumPrefixes())
	byCountry := make([]uint32, table.Countries.Len())
	var asless map[Origin]uint32
	for i := range ips {
		a := attrs(i)
		o := Origin{Prefix: a.Prefix, ASN: a.ASN}
		var oi uint32
		switch {
		case a.PrefixID != entity.NoPrefix:
			byPrefix = growTo(byPrefix, a.PrefixID)
			if oi = byPrefix[a.PrefixID]; oi == 0 {
				oi = uint32(len(p.origins))
				byPrefix[a.PrefixID] = oi
				p.origins = append(p.origins, o)
			}
		case o != Origin{}:
			if asless == nil {
				asless = make(map[Origin]uint32)
			}
			if oi = asless[o]; oi == 0 {
				oi = uint32(len(p.origins))
				asless[o] = oi
				p.origins = append(p.origins, o)
			}
		}
		var ci uint32
		if a.CountryID != 0 { // ID 0 is the empty code
			byCountry = growTo(byCountry, a.CountryID)
			if ci = byCountry[a.CountryID]; ci == 0 {
				ci = uint32(len(p.countries))
				byCountry[a.CountryID] = ci
				p.countries = append(p.countries, table.Countries.Value(a.CountryID))
			}
		}
		p.origin[i], p.country[i] = oi, uint16(ci)
	}
	// Table IDs follow intern order; the dictionaries are re-sorted so
	// the encoding depends on the attributes alone.
	oremap := sortedRemap(p.origins, compareOrigin)
	cremap := sortedRemap(p.countries, cmp.Compare[string])
	for i := range ips {
		p.origin[i] = oremap[p.origin[i]]
		p.country[i] = uint16(cremap[p.country[i]])
	}
	return p
}

// growTo extends s to hold index i: the table grows while the product
// is built when AttributesOf interns an IP the run did not resolve.
func growTo(s []uint32, i uint32) []uint32 {
	if int(i) < len(s) {
		return s
	}
	return append(s, make([]uint32, int(i)+1-len(s))...)
}

// sortedRemap sorts dict[1:] in place and returns, for each old index,
// the new one. Index 0 (the "none" entry) stays put.
func sortedRemap[T any](dict []T, compare func(a, b T) int) []uint32 {
	order := make([]uint32, len(dict))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order[1:], func(a, b uint32) int { return compare(dict[a], dict[b]) })
	sorted := make([]T, len(dict))
	remap := make([]uint32, len(dict))
	for newIdx, old := range order {
		sorted[newIdx] = dict[old]
		remap[old] = uint32(newIdx)
	}
	copy(dict, sorted)
	return remap
}

func compareOrigin(a, b Origin) int {
	if c := cmp.Compare(a.Prefix.Addr, b.Prefix.Addr); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Prefix.Len, b.Prefix.Len); c != 0 {
		return c
	}
	return cmp.Compare(a.ASN, b.ASN)
}

// mentionedIPs is every IP the products mention, ascending: the
// servers and, when the visibility analyzer ran, its observed IPs.
func mentionedIPs(p *Products) []packet.IPv4Addr {
	var ips []packet.IPv4Addr
	if res := p.Webserver(); res != nil {
		for ip := range res.Servers {
			ips = append(ips, ip)
		}
	}
	if vp := p.Visibility(); vp != nil {
		ips = append(ips, vp.ips()...)
	}
	slices.Sort(ips)
	return slices.Compact(ips)
}

// coversServers reports whether p (nil covers nothing) holds every
// server of res.
func (p *AttributesProduct) coversServers(res *webserver.Result) bool {
	if p == nil {
		return false
	}
	if res == nil {
		return true
	}
	for ip := range res.Servers {
		if _, ok := slices.BinarySearch(p.ips, ip); !ok {
			return false
		}
	}
	return true
}

// Len is the number of IPs covered.
func (p *AttributesProduct) Len() int { return len(p.ips) }

// IP is the i-th covered IP, in ascending order.
func (p *AttributesProduct) IP(i int) packet.IPv4Addr { return p.ips[i] }

// At returns the attributes of the i-th covered IP.
func (p *AttributesProduct) At(i int) IPAttrs {
	o := p.origins[p.origin[i]]
	return IPAttrs{ASN: o.ASN, Prefix: o.Prefix, Country: p.countries[p.country[i]]}
}

// Find returns ip's attributes, false when the product does not cover
// it.
func (p *AttributesProduct) Find(ip packet.IPv4Addr) (IPAttrs, bool) {
	i, ok := slices.BinarySearch(p.ips, ip)
	if !ok {
		return IPAttrs{}, false
	}
	return p.At(i), true
}

// ChurnObs is the churn tracker's view of one server with attributes a:
// its traffic, HTTPS flag and serving member (-1 unknown), and its origin
// AS, prefix and region.
func (a IPAttrs) ChurnObs(bytes uint64, https bool, member int32) churn.ServerObs {
	return churn.ServerObs{Bytes: bytes, ASN: a.ASN, Prefix: a.Prefix, Region: geo.Region(a.Country), HTTPS: https, Member: member}
}

// Observation is a week's churn observation: every server of res joined
// by IP with its attributes in attrs, the week's own (a server attrs
// does not cover keeps zero attributes), and the week's loss
// annotation. Weeks are joined by IP, never by entity ID, so each week
// may resolve through its own table.
func Observation(res *webserver.Result, attrs *AttributesProduct) churn.WeekObservation {
	obs := churn.WeekObservation{
		Week:    res.Week,
		Servers: make(map[packet.IPv4Addr]churn.ServerObs, len(res.Servers)),
		EstLoss: res.EstLoss,
	}
	for ip, srv := range res.Servers {
		a, _ := attrs.Find(ip)
		obs.Servers[ip] = a.ChurnObs(srv.Bytes, srv.HTTPS, srv.Member)
	}
	return obs
}

// AppendEncode appends the section payload:
//
//	attributes := nCountries:u16 country:str*             — ascending, non-empty
//	              nOrigins:u32 (addr:u32 len:u8 asn:u32)*  — ascending (addr, len, asn)
//	              nIPs:u32 entry*                          — ascending by IP
//	entry      := gap:uvarint origin:varint country:uvarint
//
// gap is the IP minus the previous one (the first IP itself); origin is
// the IP's origin index minus the previous IP's, zigzag-encoded, so IPs
// of one prefix cost a byte; index 0 of either dictionary is "none" and
// is not written. Varints are minimal, so every payload has one
// encoding.
func (p *AttributesProduct) AppendEncode(dst []byte) ([]byte, error) {
	// Sized for three to five bytes an IP, the common case.
	dst = slices.Grow(dst, 2+4*len(p.countries)+4+9*len(p.origins)+4+5*len(p.ips))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.countries)-1))
	for _, cc := range p.countries[1:] {
		dst = AppendString(dst, cc)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.origins)-1))
	for _, o := range p.origins[1:] {
		dst = binary.BigEndian.AppendUint32(dst, uint32(o.Prefix.Addr))
		dst = append(dst, o.Prefix.Len)
		dst = binary.BigEndian.AppendUint32(dst, o.ASN)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.ips)))
	var prevIP packet.IPv4Addr
	var prevOrigin uint32
	for i, ip := range p.ips {
		dst = binary.AppendUvarint(dst, uint64(ip-prevIP))
		dst = binary.AppendVarint(dst, int64(p.origin[i])-int64(prevOrigin))
		dst = binary.AppendUvarint(dst, uint64(p.country[i]))
		prevIP, prevOrigin = ip, p.origin[i]
	}
	return dst, nil
}

// minEntryLen is the smallest encoded IP entry: three one-byte varints.
const minEntryLen = 3

// DecodeAttributes parses an attributes section payload. Only the
// canonical encoding is accepted — sorted dictionaries without
// duplicates, masked prefixes, IPs strictly ascending, minimal varints,
// no trailing bytes — so a decoded product re-encodes to its input.
func DecodeAttributes(version uint16, payload []byte) (*AttributesProduct, error) {
	if version != AttributesVersion {
		return nil, fmt.Errorf("%w: attributes v%d", ErrVersion, version)
	}
	bad := func(format string, args ...any) (*AttributesProduct, error) {
		return nil, fmt.Errorf("%w: attributes: "+format, append([]any{ErrFormat}, args...)...)
	}
	cur := NewCursor(payload)
	nc := int(cur.U16())
	if cur.Bad() || nc > cur.Len()/3 {
		return bad("%d countries in %d bytes", nc, cur.Len())
	}
	p := &AttributesProduct{countries: make([]string, 1, nc+1)}
	for i := 0; i < nc; i++ {
		cc := cur.Str()
		if cur.Bad() || cc <= p.countries[len(p.countries)-1] {
			return bad("country %d out of order", i)
		}
		p.countries = append(p.countries, cc)
	}
	no := int(cur.U32())
	if cur.Bad() || no > cur.Len()/9 {
		return bad("%d origins in %d bytes", no, cur.Len())
	}
	p.origins = make([]Origin, 1, no+1)
	for i := 0; i < no; i++ {
		o := Origin{Prefix: routing.Prefix{Addr: packet.IPv4Addr(cur.U32()), Len: cur.U8()}, ASN: cur.U32()}
		if o.Prefix.Len > 32 || routing.MakePrefix(o.Prefix.Addr, o.Prefix.Len) != o.Prefix {
			return bad("origin %d is no prefix", i)
		}
		if compareOrigin(o, p.origins[len(p.origins)-1]) <= 0 {
			return bad("origin %d out of order", i)
		}
		p.origins = append(p.origins, o)
	}
	n := int(cur.U32())
	if cur.Bad() || n > cur.Len()/minEntryLen {
		return bad("%d IPs in %d bytes", n, cur.Len())
	}
	p.ips = make([]packet.IPv4Addr, n)
	p.origin = make([]uint32, n)
	p.country = make([]uint16, n)
	rest := cur.Take(cur.Len())
	var ip uint64
	var origin int64
	for i := 0; i < n; i++ {
		gap, k := binary.Uvarint(rest)
		if k <= 0 || k != uvarintLen(gap) || (i > 0 && gap == 0) || ip+gap > 1<<32-1 {
			return bad("IP %d: bad gap", i)
		}
		rest = rest[k:]
		d, k := binary.Varint(rest)
		if k <= 0 || k != varintLen(d) {
			return bad("IP %d: bad origin", i)
		}
		rest = rest[k:]
		c, k := binary.Uvarint(rest)
		if k <= 0 || k != uvarintLen(c) {
			return bad("IP %d: bad country", i)
		}
		rest = rest[k:]
		ip += gap
		origin += d
		if origin < 0 || origin >= int64(len(p.origins)) || c >= uint64(len(p.countries)) {
			return bad("IP %d: index out of range", i)
		}
		p.ips[i], p.origin[i], p.country[i] = packet.IPv4Addr(ip), uint32(origin), uint16(c)
	}
	if len(rest) != 0 {
		return bad("%d trailing bytes", len(rest))
	}
	return p, nil
}

// uvarintLen is the length of v's minimal uvarint encoding.
func uvarintLen(v uint64) int { return max(1, (bits.Len64(v)+6)/7) }

// varintLen is the length of v's minimal (zigzag) varint encoding.
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }
