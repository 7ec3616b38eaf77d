// Package inputs is a campaign's recorded inputs: the data sets the
// analysis consults, written by ixpgen next to the captures so ixpmine
// can mine them without generating the world. The paper mined its
// sFlow against external data — BGP RIBs, a GeoLite country database,
// the IXP's member list, DNS and a certificate crawl run during the
// study weeks — and this file holds the same kinds of data, dated where
// the study dates them.
//
// The file is an IXPSNAP2 section container (package snapshot), one
// checksummed section per data set:
//
//	acme          the AcmeCDN analog's name, domain and home AS
//	counts        the world's sizes (ixpmine's "substrates" line)
//	dnsproviders  the public DNS providers' domains
//	members       member port → member AS index
//	rib           prefix → origin ASN and geo country, by address
//	roots         the crawl's trusted root store
//	soa           registrable domain → SOA authority root, by domain
//	crawl-WW      week WW's HTTPS crawl answers, by address
//	ptr-WW        week WW's PTR answers, by address
//
// The per-week sections are keyed by the address as it appears in that
// week's written capture — after fault injection and anonymization —
// and hold only the addresses the capture carries whose answer is not
// empty: an absent address answers as the world answers an address it
// does not know (no crawl response, no PTR name). Every section is
// version 1. Decode accepts only the canonical encoding Encode writes:
// anything else fails with ErrFormat, and a section version this build
// does not know with ErrVersion.
package inputs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"ixplens/internal/certsim"
	"ixplens/internal/geo"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/routing"
	"ixplens/internal/snapshot"
)

// FileName is the inputs file inside a campaign directory.
const FileName = "inputs.snap"

// Sentinel errors, testable with errors.Is.
var (
	// ErrFormat marks bytes that are not a canonical inputs file: a
	// damaged or foreign container, a missing, unknown or malformed
	// section, or an encoding Encode would not write.
	ErrFormat = errors.New("inputs: malformed inputs file")
	// ErrVersion marks a section version this build cannot decode: the
	// file was written by another build.
	ErrVersion = errors.New("inputs: unsupported section version")
)

// version is every section's version.
const version = 1

// Section names.
const (
	secAcme      = "acme"
	secCounts    = "counts"
	secProviders = "dnsproviders"
	secMembers   = "members"
	secRIB       = "rib"
	secRoots     = "roots"
	secSOA       = "soa"
	preCrawl     = "crawl-"
	prePTR       = "ptr-"
)

// File is an inputs file's content.
type File struct {
	Acme      pipeline.Org
	Counts    pipeline.WorldCounts
	PublicDNS []string
	// Members, Routes and SOA are sorted by port, prefix address and
	// domain, each key unique.
	Members []Member
	Routes  []Route
	Roots   []string
	SOA     []SOA
	// Weeks holds the per-week answers in ascending week order.
	Weeks []Week
}

// Member maps one IXP switch port to the member AS index behind it.
type Member struct {
	Port uint32
	AS   int32
}

// Route is one prefix with its origin ASN and geo-located country.
type Route struct {
	Prefix  routing.Prefix
	ASN     uint32
	Country string
}

// SOA maps a registrable domain to its authority root.
type SOA struct {
	Domain, Root string
}

// Week holds one study week's active-measurement answers, each slice
// sorted by address with no address twice.
type Week struct {
	ISOWeek int
	Crawl   []CrawlAnswer
	PTR     []PTRAnswer
}

// CrawlAnswer is the HTTPS crawl's result for one address.
type CrawlAnswer struct {
	IP     packet.IPv4Addr
	Result certsim.CrawlResult
}

// PTRAnswer is the reverse-DNS name of one address.
type PTRAnswer struct {
	IP   packet.IPv4Addr
	Name string
}

// Encode renders f as an inputs file.
func Encode(f *File) ([]byte, error) {
	secs := campaignSections(f)
	for i := range f.Weeks {
		secs = append(secs, weekSections(&f.Weeks[i])...)
	}
	return snapshot.AppendSections(nil, secs)
}

// campaignSections encodes f's campaign-wide sections.
func campaignSections(f *File) []snapshot.Section {
	return []snapshot.Section{
		{Name: secAcme, Version: version, Payload: encodeAcme(&f.Acme)},
		{Name: secCounts, Version: version, Payload: encodeCounts(&f.Counts)},
		{Name: secProviders, Version: version, Payload: encodeStrings(f.PublicDNS)},
		{Name: secMembers, Version: version, Payload: encodeMembers(f.Members)},
		{Name: secRIB, Version: version, Payload: encodeRIB(f.Routes)},
		{Name: secRoots, Version: version, Payload: encodeStrings(f.Roots)},
		{Name: secSOA, Version: version, Payload: encodeSOA(f.SOA)},
	}
}

// weekSections encodes one week's crawl and PTR sections.
func weekSections(w *Week) []snapshot.Section {
	return []snapshot.Section{
		{Name: weekSection(preCrawl, w.ISOWeek), Version: version, Payload: encodeCrawl(w.ISOWeek, w.Crawl)},
		{Name: weekSection(prePTR, w.ISOWeek), Version: version, Payload: encodePTR(w.PTR)},
	}
}

func weekSection(prefix string, isoWeek int) string {
	return fmt.Sprintf("%s%02d", prefix, isoWeek)
}

// Decode parses an inputs file. It accepts exactly the bytes Encode
// writes for the content it decodes: every table sorted, duplicate-free
// and wholly referenced, every key strictly ascending, every varint
// minimal, every repeated chain written as a repeat and every week with
// both its sections.
func Decode(buf []byte) (*File, error) {
	p, err := parse(buf)
	if err != nil {
		return nil, err
	}
	for i := range p.Weeks {
		w := &p.Weeks[i]
		c := p.crawl[w.ISOWeek]
		w.Crawl = make([]CrawlAnswer, len(c.ips))
		for k, ip := range c.ips {
			w.Crawl[k] = CrawlAnswer{IP: ip, Result: c.answer(k)}
		}
	}
	return &p.File, nil
}

// parsed is a validated inputs file whose crawl answers are still
// encoded: Weeks[i].Crawl is nil, and crawl holds each week's section.
type parsed struct {
	File
	crawl map[int]*crawlSection
}

// parse validates buf as Decode does, leaving the crawl answers encoded.
func parse(buf []byte) (*parsed, error) {
	secs, err := snapshot.Sections(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFormat, err)
	}
	p := &parsed{crawl: map[int]*crawlSection{}}
	f := &p.File
	seen := map[string]bool{}
	ptr := map[int][]PTRAnswer{}
	for _, s := range secs {
		if s.Version != version {
			return nil, fmt.Errorf("%w: section %q v%d", ErrVersion, s.Name, s.Version)
		}
		seen[s.Name] = true
		var ok bool
		switch s.Name {
		case secAcme:
			ok = decodeAcme(s.Payload, &f.Acme)
		case secCounts:
			ok = decodeCounts(s.Payload, &f.Counts)
		case secProviders:
			f.PublicDNS, ok = decodeStrings(s.Payload, readList)
		case secMembers:
			f.Members, ok = decodeMembers(s.Payload)
		case secRIB:
			f.Routes, ok = decodeRIB(s.Payload)
		case secRoots:
			f.Roots, ok = decodeStrings(s.Payload, readTable)
		case secSOA:
			f.SOA, ok = decodeSOA(s.Payload)
		default:
			if n, isWeek := parseWeek(s.Name, preCrawl); isWeek {
				p.crawl[n], ok = decodeCrawl(n, s.Payload)
			} else if n, isWeek := parseWeek(s.Name, prePTR); isWeek {
				ptr[n], ok = decodePTR(s.Payload)
			} else {
				return nil, fmt.Errorf("%w: unknown section %q", ErrFormat, s.Name)
			}
		}
		if !ok {
			return nil, formatErr(s.Name, "does not decode")
		}
	}
	for _, name := range []string{secAcme, secCounts, secProviders, secMembers, secRIB, secRoots, secSOA} {
		if !seen[name] {
			return nil, fmt.Errorf("%w: missing section %q", ErrFormat, name)
		}
	}
	// Encode writes both sections of every week.
	for n := range p.crawl {
		if _, ok := ptr[n]; !ok {
			return nil, fmt.Errorf("%w: week %d lacks its PTR section", ErrFormat, n)
		}
	}
	for n, answers := range ptr {
		if p.crawl[n] == nil {
			return nil, fmt.Errorf("%w: week %d lacks its crawl section", ErrFormat, n)
		}
		f.Weeks = append(f.Weeks, Week{ISOWeek: n, PTR: answers})
	}
	slices.SortFunc(f.Weeks, func(a, b Week) int { return a.ISOWeek - b.ISOWeek })
	return p, nil
}

// parseWeek reads the ISO week of a per-week section name.
func parseWeek(name, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 || n > 99 || weekSection(prefix, n) != name {
		return 0, false
	}
	return n, true
}

func encodeAcme(o *pipeline.Org) []byte {
	var e enc
	e.str(o.Name)
	e.str(o.Domain)
	e.sv(int64(o.HomeAS))
	return e
}

func decodeAcme(p []byte, o *pipeline.Org) bool {
	d := dec{b: p}
	o.Name, o.Domain, o.HomeAS = d.str(), d.str(), d.i32()
	return d.done()
}

func encodeCounts(c *pipeline.WorldCounts) []byte {
	var e enc
	for _, v := range []int{c.ASes, c.Prefixes, c.Orgs, c.Servers, c.MembersStart, c.MembersEnd} {
		e.uv(uint64(v))
	}
	return e
}

func decodeCounts(p []byte, c *pipeline.WorldCounts) bool {
	d := dec{b: p}
	for _, v := range []*int{&c.ASes, &c.Prefixes, &c.Orgs, &c.Servers, &c.MembersStart, &c.MembersEnd} {
		n := d.uv()
		if n > math.MaxInt32 {
			return false
		}
		*v = int(n)
	}
	return d.done()
}

func encodeStrings(strs []string) []byte {
	var e enc
	e.uv(uint64(len(strs)))
	for _, s := range strs {
		e.str(s)
	}
	return e
}

func decodeStrings(p []byte, read func(*dec) []string) ([]string, bool) {
	d := dec{b: p}
	out := read(&d)
	return out, d.done()
}

// members := n (portDelta memberAS)*, ports ascending.
func encodeMembers(ms []Member) []byte {
	var e enc
	e.uv(uint64(len(ms)))
	prev := uint32(0)
	for _, m := range ms {
		e.uv(uint64(m.Port - prev))
		e.uv(uint64(uint32(m.AS)))
		prev = m.Port
	}
	return e
}

func decodeMembers(p []byte) ([]Member, bool) {
	d := dec{b: p}
	n := d.count()
	out := make([]Member, 0, n)
	port := uint64(0)
	for i := 0; i < n && !d.bad; i++ {
		delta, as := d.uv(), d.uv()
		port += delta
		if (i > 0 && delta == 0) || port > math.MaxUint32 || as > math.MaxInt32 {
			return nil, false // ports strictly ascending
		}
		out = append(out, Member{Port: uint32(port), AS: int32(as)})
	}
	return out, d.done()
}

// rib := countries n (addrDelta len asn country)*, addresses ascending.
func encodeRIB(rs []Route) []byte {
	var e enc
	countries := make([]string, len(rs))
	for i := range rs {
		countries[i] = rs[i].Country
	}
	t := newTable(countries)
	t.encode(&e)
	e.uv(uint64(len(rs)))
	prev := packet.IPv4Addr(0)
	for i := range rs {
		r := &rs[i]
		e.uv(uint64(r.Prefix.Addr - prev))
		e.u8(r.Prefix.Len)
		e.uv(uint64(r.ASN))
		e.uv(uint64(t.idx[r.Country]))
		prev = r.Prefix.Addr
	}
	return e
}

func decodeRIB(p []byte) ([]Route, bool) {
	d := dec{b: p}
	countries := readTable(&d)
	u := make(used, len(countries))
	n := d.count()
	out := make([]Route, 0, n)
	addr, next := uint64(0), uint64(0)
	for i := 0; i < n && !d.bad; i++ {
		addr += d.uv()
		length := d.u8()
		asn := d.uv()
		country := u.ref(&d, countries)
		if d.bad || addr > math.MaxUint32 || length > 32 || asn > math.MaxUint32 {
			return nil, false
		}
		pfx := routing.MakePrefix(packet.IPv4Addr(addr), length)
		if pfx.Addr != packet.IPv4Addr(addr) || addr < next {
			return nil, false // host bits set, or overlapping its predecessor
		}
		next = uint64(pfx.Last()) + 1
		out = append(out, Route{Prefix: pfx, ASN: uint32(asn), Country: country})
	}
	return out, d.done() && u.all()
}

// soa := roots n (shared suffix root)*, domains ascending and each
// stored as the length it shares with its predecessor plus the rest.
func encodeSOA(es []SOA) []byte {
	var e enc
	roots := make([]string, len(es))
	for i := range es {
		roots[i] = es[i].Root
	}
	t := newTable(roots)
	t.encode(&e)
	e.uv(uint64(len(es)))
	prev := ""
	for i := range es {
		dom := es[i].Domain
		k := 0
		for k < len(dom) && k < len(prev) && dom[k] == prev[k] {
			k++
		}
		e.uv(uint64(k))
		e.str(dom[k:])
		e.uv(uint64(t.idx[es[i].Root]))
		prev = dom
	}
	return e
}

func decodeSOA(p []byte) ([]SOA, bool) {
	d := dec{b: p}
	roots := readTable(&d)
	u := make(used, len(roots))
	n := d.count()
	out := make([]SOA, 0, n)
	prev := ""
	for i := 0; i < n && !d.bad; i++ {
		k := d.uv()
		rest := d.str()
		root := u.ref(&d, roots)
		if d.bad || k > uint64(len(prev)) {
			return nil, false
		}
		dom := prev[:k] + rest
		// Domains strictly ascending, each sharing exactly its common
		// prefix with its predecessor.
		if (i > 0 && dom <= prev) || sharedLen(prev, dom) != int(k) {
			return nil, false
		}
		out = append(out, SOA{Domain: dom, Root: root})
		prev = dom
	}
	return out, d.done() && u.all()
}

// sharedLen is the length of a's and b's common prefix.
func sharedLen(a, b string) int {
	k := 0
	for k < len(a) && k < len(b) && a[k] == b[k] {
		k++
	}
	return k
}

// crawl := strings n (ipDelta responded nChains chain*)*, where a chain
// is 1 when it equals the chain before it, else 0 nCerts cert*, and a
// cert is subject nAlt alt* usage issuer notBefore notAfter, the
// strings as table indices and the validity weeks relative to the
// crawl week.
func encodeCrawl(isoWeek int, as []CrawlAnswer) []byte {
	var strs []string
	for i := range as {
		for _, ch := range as[i].Result.Chains {
			for _, c := range ch {
				strs = append(strs, c.Subject, c.Issuer)
				strs = append(strs, c.AltNames...)
			}
		}
	}
	t := newTable(strs)
	var e enc
	t.encode(&e)
	e.uv(uint64(len(as)))
	prev := packet.IPv4Addr(0)
	for i := range as {
		a := &as[i]
		e.uv(uint64(a.IP - prev))
		prev = a.IP
		if a.Result.Responded {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.uv(uint64(len(a.Result.Chains)))
		for k, ch := range a.Result.Chains {
			if k > 0 && sameChain(ch, a.Result.Chains[k-1]) {
				e.u8(1)
				continue
			}
			e.u8(0)
			e.uv(uint64(len(ch)))
			for _, c := range ch {
				e.uv(uint64(t.idx[c.Subject]))
				e.uv(uint64(len(c.AltNames)))
				for _, an := range c.AltNames {
					e.uv(uint64(t.idx[an]))
				}
				e.u8(byte(c.KeyUsage))
				e.uv(uint64(t.idx[c.Issuer]))
				e.sv(int64(c.NotBefore - isoWeek))
				e.sv(int64(c.NotAfter - isoWeek))
			}
		}
	}
	return e
}

func decodeCrawl(isoWeek int, p []byte) (*crawlSection, bool) {
	d := dec{b: p}
	strs := readTable(&d)
	u := make(used, len(strs))
	n := d.count()
	c := &crawlSection{week: isoWeek, strs: strs, p: p, ips: make([]packet.IPv4Addr, 0, n), at: make([]int32, 0, n)}
	ip := uint64(0)
	for i := 0; i < n && !d.bad; i++ {
		delta := d.uv()
		ip += delta
		if (i > 0 && delta == 0) || ip > math.MaxUint32 {
			return nil, false // addresses strictly ascending
		}
		c.ips = append(c.ips, packet.IPv4Addr(ip))
		c.at = append(c.at, int32(len(p)-len(d.b)))
		if !crawlEntry(&d, strs, u, isoWeek, nil) {
			return nil, false
		}
	}
	return c, d.done() && u.all()
}

// crawlSection is one week's crawl answers left encoded: the answer of
// ips[i] starts at p[at[i]]. Validated by decodeCrawl, an answer
// decodes again only when asked for.
type crawlSection struct {
	week int
	strs []string
	p    []byte
	ips  []packet.IPv4Addr
	at   []int32
}

// answer decodes the i-th answer.
func (c *crawlSection) answer(i int) certsim.CrawlResult {
	var res certsim.CrawlResult
	d := dec{b: c.p[c.at[i]:]}
	crawlEntry(&d, c.strs, nil, c.week, &res)
	return res
}

// lookup returns ip's answer, the empty one when none was recorded.
func (c *crawlSection) lookup(ip packet.IPv4Addr) certsim.CrawlResult {
	if c == nil {
		return certsim.CrawlResult{}
	}
	i, ok := slices.BinarySearch(c.ips, ip)
	if !ok {
		return certsim.CrawlResult{}
	}
	return c.answer(i)
}

// crawlEntry reads one answer after its address, marking the strings it
// references in u. With out nil it only validates; a full chain must
// then differ from the chain before it — equal chains encode to equal
// bytes, so the comparison needs no decoding. Otherwise it builds the
// answer into *out.
func crawlEntry(d *dec, strs []string, u used, isoWeek int, out *certsim.CrawlResult) bool {
	var res certsim.CrawlResult
	switch d.u8() {
	case 0:
	case 1:
		res.Responded = true
	default:
		return false
	}
	var last []byte // the encoding of the last full chain
	nChains := d.count()
	for k := 0; k < nChains && !d.bad; k++ {
		switch d.u8() {
		case 1:
			if k == 0 {
				return false
			}
			if out != nil {
				res.Chains = append(res.Chains, res.Chains[k-1])
			}
			continue
		case 0:
		default:
			return false
		}
		start := d.b
		nCerts := d.count()
		var ch certsim.Chain
		if out != nil {
			ch = make(certsim.Chain, nCerts)
		}
		for c := 0; c < nCerts && !d.bad; c++ {
			var cert certsim.Certificate
			cert.Subject = u.ref(d, strs)
			if nAlt := d.count(); nAlt > 0 && out != nil {
				cert.AltNames = make([]string, nAlt)
				for a := range cert.AltNames {
					cert.AltNames[a] = u.ref(d, strs)
				}
			} else {
				for a := 0; a < nAlt; a++ {
					u.ref(d, strs)
				}
			}
			cert.KeyUsage = certsim.KeyUsage(d.u8())
			cert.Issuer = u.ref(d, strs)
			cert.NotBefore = isoWeek + int(d.i32())
			cert.NotAfter = isoWeek + int(d.i32())
			if out != nil {
				ch[c] = cert
			}
		}
		enc := start[:len(start)-len(d.b)]
		// A chain equal to its predecessor is written as a repeat.
		if k > 0 && bytes.Equal(enc, last) {
			return false
		}
		last = enc
		if out != nil {
			res.Chains = append(res.Chains, ch)
		}
	}
	if out != nil {
		*out = res
	}
	return !d.bad
}

// sameChain reports two chains equal in every field.
func sameChain(a, b certsim.Chain) bool {
	return slices.EqualFunc(a, b, func(x, y certsim.Certificate) bool {
		return x.Subject == y.Subject && x.Issuer == y.Issuer && x.KeyUsage == y.KeyUsage &&
			x.NotBefore == y.NotBefore && x.NotAfter == y.NotAfter && slices.Equal(x.AltNames, y.AltNames)
	})
}

// ptr := domains n (ipDelta label domain)*, a name split at its first
// dot into a label and a domain-table index plus one (0: no dot).
func encodePTR(as []PTRAnswer) []byte {
	var doms []string
	for i := range as {
		if _, dom, ok := strings.Cut(as[i].Name, "."); ok {
			doms = append(doms, dom)
		}
	}
	t := newTable(doms)
	var e enc
	t.encode(&e)
	e.uv(uint64(len(as)))
	prev := packet.IPv4Addr(0)
	for i := range as {
		a := &as[i]
		e.uv(uint64(a.IP - prev))
		prev = a.IP
		label, dom, ok := strings.Cut(a.Name, ".")
		e.str(label)
		if ok {
			e.uv(uint64(t.idx[dom] + 1))
		} else {
			e.uv(0)
		}
	}
	return e
}

func decodePTR(p []byte) ([]PTRAnswer, bool) {
	d := dec{b: p}
	doms := readTable(&d)
	u := make(used, len(doms))
	n := d.count()
	out := make([]PTRAnswer, 0, n)
	ip := uint64(0)
	for i := 0; i < n && !d.bad; i++ {
		delta := d.uv()
		ip += delta
		name := d.str()
		if (i > 0 && delta == 0) || ip > math.MaxUint32 || strings.Contains(name, ".") {
			return nil, false // addresses strictly ascending, labels dot-free
		}
		if k := d.index(len(doms) + 1); k > 0 && !d.bad {
			u[k-1] = true
			name += "." + doms[k-1]
		}
		out = append(out, PTRAnswer{IP: packet.IPv4Addr(ip), Name: name})
	}
	return out, d.done() && u.all()
}

// Read validates an inputs file as Decode does and returns the analysis
// half it describes: the RIB and geo DB from its routes, a member
// resolver, and a crawler and DNS resolver answering from the recorded
// answers. The crawl answers stay encoded in buf, which the crawler
// keeps, and decode when asked for.
func Read(buf []byte) (pipeline.Inputs, error) {
	p, err := parse(buf)
	if err != nil {
		return pipeline.Inputs{}, err
	}
	return p.inputs()
}

// inputs builds the analysis half of a parsed file.
func (p *parsed) inputs() (pipeline.Inputs, error) {
	f := &p.File
	rib := routing.NewTable()
	ranges := make([]geo.Range, len(f.Routes))
	for i, r := range f.Routes {
		rib.Insert(r.Prefix, r.ASN)
		ranges[i] = geo.Range{First: r.Prefix.First(), Last: r.Prefix.Last(), Country: r.Country}
	}
	gdb, err := geo.Build(ranges)
	if err != nil {
		return pipeline.Inputs{}, fmt.Errorf("%w: section %q: %w", ErrFormat, secRIB, err)
	}
	members, err := newMemberMap(f.Members)
	if err != nil {
		return pipeline.Inputs{}, err
	}
	roots := make(map[string]bool, len(f.Roots))
	for _, r := range f.Roots {
		roots[r] = true
	}
	res := &resolver{soa: make(map[string]string, len(f.SOA)), ptr: map[packet.IPv4Addr]string{}}
	for _, s := range f.SOA {
		res.soa[s.Domain] = s.Root
	}
	cr := &crawler{roots: roots, weeks: p.crawl}
	for i := range f.Weeks {
		w := &f.Weeks[i]
		// A name does not depend on the week it was asked in; weeks
		// that disagree describe no world.
		for _, a := range w.PTR {
			if old, ok := res.ptr[a.IP]; ok && old != a.Name {
				return pipeline.Inputs{}, fmt.Errorf("%w: %v has PTR %q and %q", ErrFormat, a.IP, old, a.Name)
			}
			res.ptr[a.IP] = a.Name
		}
	}
	return pipeline.Inputs{
		RIB:       rib,
		Geo:       gdb,
		Members:   members,
		Crawler:   cr,
		DNS:       res,
		Roots:     roots,
		PublicDNS: f.PublicDNS,
		Acme:      f.Acme,
		Counts:    f.Counts,
	}, nil
}

// maxPortSpan bounds the member map's dense port range.
const maxPortSpan = 1 << 22

// memberMap resolves ports through a dense table over the recorded
// port range.
type memberMap struct {
	first uint32
	as    []int32 // -1: no member
}

func newMemberMap(ms []Member) (*memberMap, error) {
	m := &memberMap{}
	if len(ms) == 0 {
		return m, nil
	}
	first, last := ms[0].Port, ms[len(ms)-1].Port
	if last-first >= maxPortSpan {
		return nil, fmt.Errorf("%w: section %q spans %d ports", ErrFormat, secMembers, last-first+1)
	}
	m.first = first
	m.as = make([]int32, last-first+1)
	for i := range m.as {
		m.as[i] = -1
	}
	for _, x := range ms {
		m.as[x.Port-first] = x.AS
	}
	return m, nil
}

// MemberOfPort implements dissect.MemberResolver.
func (m *memberMap) MemberOfPort(port uint32) (int32, bool) {
	i := port - m.first
	if port < m.first || i >= uint32(len(m.as)) || m.as[i] < 0 {
		return 0, false
	}
	return m.as[i], true
}

// crawler answers the HTTPS crawl from the recorded answers.
type crawler struct {
	roots map[string]bool
	weeks map[int]*crawlSection
}

// Crawl returns the recorded answer, the empty one when none was.
func (c *crawler) Crawl(ip packet.IPv4Addr, isoWeek int) certsim.CrawlResult {
	return c.weeks[isoWeek].lookup(ip)
}

// CrawlAndValidate crawls, then validates against the roots.
func (c *crawler) CrawlAndValidate(ip packet.IPv4Addr, isoWeek int) (certsim.Info, bool) {
	return certsim.Validate(c.Crawl(ip, isoWeek), c.roots, isoWeek)
}

// Roots exposes the trust store, so validation reports its reasons.
func (c *crawler) Roots() map[string]bool { return c.roots }

// resolver answers PTR and SOA queries from the recorded answers.
type resolver struct {
	ptr map[packet.IPv4Addr]string
	soa map[string]string
}

// PTR implements metadata.Resolver.
func (r *resolver) PTR(ip packet.IPv4Addr) (string, bool) {
	name, ok := r.ptr[ip]
	return name, ok
}

// SOA implements metadata.Resolver.
func (r *resolver) SOA(domain string) (string, bool) {
	root, ok := r.soa[domain]
	return root, ok
}
