// Package webserver implements the Web-server identification of Section
// 2.2.2: string matching over the 128-byte payload snippets finds HTTP
// servers (method words and status lines, plus well-known header
// fields), and a combination of port-443 candidacy with an active
// certificate crawl finds HTTPS servers. The package also keeps the
// per-IP aggregates (traffic, ports, observed Host headers, dual
// client/server roles) that the rest of the study consumes.
package webserver

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"ixplens/internal/certsim"
	"ixplens/internal/core/dissect"
	"ixplens/internal/entity"
	"ixplens/internal/obs"
	"ixplens/internal/packet"
)

// Metrics is the identifier's observability bundle: payload kinds the
// string matching saw, Host headers extracted, and the HTTPS crawl
// funnel with per-reason validation failures. Build it with NewMetrics;
// a nil *Metrics disables instrumentation at the cost of one branch per
// observation.
type Metrics struct {
	PayloadRequests   *obs.Counter
	PayloadResponses  *obs.Counter
	PayloadHeaderOnly *obs.Counter
	PayloadOpaque     *obs.Counter
	HostsExtracted    *obs.Counter
	CrawlAttempts     *obs.Counter
	CrawlResponses    *obs.Counter
	CrawlValid        *obs.Counter
	// MergeNanos times the deterministic shard merge at the start of
	// Identify (zero observations when the identifier has one shard).
	MergeNanos *obs.Histogram
	// ValidateFail counts rejected HTTPS candidates by rejection reason,
	// indexed by certsim.RejectReason. Exposed as
	// crawl_validate_fail{reason=...}; the reasons sum to
	// Candidates443 - Valid443, making every rejection auditable.
	ValidateFail [certsim.NumRejectReasons]*obs.Counter
}

// NewMetrics resolves the identifier's metrics in r. A nil registry
// yields nil, which disables instrumentation.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	m := &Metrics{
		PayloadRequests:   r.Counter("webserver_payload_requests_total"),
		PayloadResponses:  r.Counter("webserver_payload_responses_total"),
		PayloadHeaderOnly: r.Counter("webserver_payload_header_only_total"),
		PayloadOpaque:     r.Counter("webserver_payload_opaque_total"),
		HostsExtracted:    r.Counter("webserver_hosts_extracted_total"),
		CrawlAttempts:     r.Counter("webserver_crawl_attempts_total"),
		CrawlResponses:    r.Counter("webserver_crawl_responses_total"),
		CrawlValid:        r.Counter("webserver_crawl_valid_total"),
		MergeNanos:        r.Histogram("webserver_shard_merge_ns"),
	}
	for reason := certsim.RejectReason(1); reason < certsim.NumRejectReasons; reason++ {
		m.ValidateFail[reason] = r.Counter(fmt.Sprintf("crawl_validate_fail{reason=%s}", reason))
	}
	return m
}

// payload tallies one string-matching outcome.
func (m *Metrics) payload(kind payloadKind) {
	switch kind {
	case payloadHTTPRequest:
		m.PayloadRequests.Inc()
	case payloadHTTPResponse:
		m.PayloadResponses.Inc()
	case payloadHTTPHeaderOnly:
		m.PayloadHeaderOnly.Inc()
	default:
		m.PayloadOpaque.Inc()
	}
}

// payloadKind is what string matching saw in one payload.
type payloadKind uint8

const (
	payloadOpaque payloadKind = iota
	payloadHTTPRequest
	payloadHTTPResponse
	payloadHTTPHeaderOnly // header field words without an initial line
)

// Pattern 1: initial lines. Requests start with a method word, responses
// with HTTP/1.x.
var methodWords = [][]byte{
	[]byte("GET "), []byte("POST "), []byte("HEAD "), []byte("PUT "),
	[]byte("DELETE "), []byte("OPTIONS "), []byte("CONNECT "),
}

var responsePrefixes = [][]byte{[]byte("HTTP/1.1 "), []byte("HTTP/1.0 ")}

// Pattern 2: common header field names from the RFCs and W3C specs,
// each matched as "Name: ".
func isHeaderName(tok []byte) bool {
	switch string(tok) {
	case "Host", "Server", "Content-Type", "Content-Length", "User-Agent",
		"Cache-Control", "Access-Control-Allow-Methods", "Set-Cookie",
		"Accept", "Location":
		return true
	}
	return false
}

var (
	httpVersionWord = []byte(" HTTP/1.")
	fieldSeparator  = []byte(": ")
)

// classifyPayload applies the two string-matching patterns. The initial
// line prefixes are only tried when the first byte can start one.
func classifyPayload(p []byte) payloadKind {
	if len(p) == 0 {
		return payloadOpaque
	}
	switch p[0] {
	case 'G', 'P', 'H', 'D', 'O', 'C':
		for _, m := range methodWords {
			if bytes.HasPrefix(p, m) && bytes.Contains(p, httpVersionWord) {
				return payloadHTTPRequest
			}
		}
		for _, r := range responsePrefixes {
			if bytes.HasPrefix(p, r) {
				return payloadHTTPResponse
			}
		}
	}
	if hasHeaderField(p) {
		return payloadHTTPHeaderOnly
	}
	return payloadOpaque
}

// fieldNameByte reports whether c can be part of an HTTP header field
// name as they occur in practice (letters, digits, '-', '_').
func fieldNameByte(c byte) bool {
	return c == '-' || c == '_' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// hasHeaderField reports whether a known header field occurs where a
// field can actually start, in one pass over the ": " separators: the
// maximal run of field-name bytes before a separator must be a header
// name. A bare substring match would also accept mid-token occurrences
// — "Host: " inside "X-Forwarded-Host: " — and misattribute them.
// Because the 128-byte snap can begin mid-stream, a name may open the
// payload or follow CR/LF or any byte that cannot extend a field name.
func hasHeaderField(p []byte) bool {
	for off := 0; ; {
		j := bytes.Index(p[off:], fieldSeparator)
		if j < 0 {
			return false
		}
		end := off + j
		start := end
		for start > 0 && fieldNameByte(p[start-1]) {
			start--
		}
		if isHeaderName(p[start:end]) {
			return true
		}
		off = end + len(fieldSeparator)
	}
}

// indexHeaderValue finds the value start of the header field name,
// requiring the field at the payload start or immediately after CR/LF so
// that mid-token occurrences ("X-Forwarded-Host:" containing "Host:")
// cannot donate the wrong header's value. Returns -1 when the field is
// absent.
func indexHeaderValue(p, name []byte) int {
	for off := 0; ; {
		j := bytes.Index(p[off:], name)
		if j < 0 {
			return -1
		}
		k := off + j
		if k == 0 || p[k-1] == '\n' || p[k-1] == '\r' {
			return k + len(name)
		}
		off = k + 1
	}
}

// extractHost pulls the Host header value out of a request payload. The
// field must sit at the payload start or right after CR/LF — otherwise
// "X-Forwarded-Host:" and friends donate the wrong value. The value runs
// to the first CR or LF (LF-only line endings are valid in the wild) or,
// when the 128-byte snap cut the payload right after a complete value,
// to the end of the payload; surrounding whitespace and an explicit
// :port suffix are trimmed. A value that might itself be truncated
// cannot be told apart from a complete one at payload end — the snap
// boundary falls where it falls — so payload-end values are accepted;
// the meta-data cleaning step downstream drops junk. The value aliases
// p; it becomes a string only if it enters an IP's capped host set.
func extractHost(p []byte) ([]byte, bool) {
	i := indexHeaderValue(p, []byte("Host:"))
	if i < 0 {
		return nil, false
	}
	rest := p[i:]
	if end := bytes.IndexAny(rest, "\r\n"); end >= 0 {
		rest = rest[:end]
	}
	rest = bytes.TrimSpace(rest)
	// Strip an explicit port ("example.com:8080"); a lone trailing colon
	// or non-numeric suffix is left for the cleaning step to judge.
	if j := bytes.LastIndexByte(rest, ':'); j >= 0 && j+1 < len(rest) && allDigits(rest[j+1:]) {
		rest = rest[:j]
	}
	if len(rest) == 0 {
		return nil, false
	}
	return rest, true
}

func allDigits(b []byte) bool {
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// IPStats aggregates everything observed about one IP endpoint. It is
// held by value in its shard's slot array; the capped port and host
// sets, which most endpoints (the clients) never fill, live out of line
// in the shard's set table so the per-IP slot stays small.
type IPStats struct {
	// BytesTotal is the represented traffic of every peering sample the
	// IP participated in (either side). Once an IP is identified as a
	// server, this is the traffic it is "responsible for or sees",
	// matching the paper's >70%-of-peering-traffic accounting.
	BytesTotal uint64
	// Bytes443 is represented traffic on port 443.
	Bytes443 uint64
	// srcSeq is the stream position of the sample that last set
	// SrcMember, so the shard merge can reproduce the serial
	// last-writer-wins outcome regardless of how samples were
	// partitioned across shards.
	srcSeq uint64
	// ServerHits counts samples where string matching placed the IP on
	// the server side; ClientHits the client side.
	ServerHits uint32
	ClientHits uint32
	// SrcMember is the member AS index whose port last carried traffic
	// sourced by this IP (-1 before any source-side sample). The IXP
	// knows its port-to-customer mapping, so this is measurement-side
	// information (used e.g. to watch reseller growth).
	SrcMember int32
	// sets is the position of the IP's port and host sets in its
	// shard's set table; 0 until the first port or host is added.
	sets uint32
	// Candidate443 marks port-443 contact (HTTPS candidate set).
	Candidate443 bool
}

const (
	maxPortsPerIP = 8
	maxHostsPerIP = 12
)

// ipSets holds one IP's capped sets: the ports it was contacted on
// (server side) and the Host header values of requests to it (the URI
// meta-data of Section 2.4).
type ipSets struct {
	ports  [maxPortsPerIP]uint16
	nPorts uint8
	hosts  []string
}

// addPort keeps the maxPortsPerIP numerically smallest distinct ports,
// sorted ascending. "k smallest" (rather than "first k encountered")
// makes the capped set a pure function of the sample multiset: merging
// two shards' sets yields exactly the set a serial pass over the union
// would keep, which the deterministic shard merge depends on.
func (s *ipSets) addPort(p uint16) {
	i, found := slices.BinarySearch(s.ports[:s.nPorts], p)
	if found {
		return
	}
	if s.nPorts < maxPortsPerIP {
		s.nPorts++
	} else if i == maxPortsPerIP {
		return // full and p is larger than everything kept
	}
	kept := s.ports[:s.nPorts]
	copy(kept[i+1:], kept[i:])
	kept[i] = p
}

// addHost keeps the maxHostsPerIP lexicographically smallest distinct
// Host values, sorted — partition-independent for the same reason as
// addPort. A []byte value becomes a string only when it enters the set.
func addHost[H string | []byte](s *ipSets, h H) {
	i := sort.Search(len(s.hosts), func(i int) bool { return s.hosts[i] >= string(h) })
	if i < len(s.hosts) && s.hosts[i] == string(h) {
		return
	}
	if len(s.hosts) < maxHostsPerIP {
		s.hosts = append(s.hosts, "")
	} else if i == len(s.hosts) {
		return
	}
	copy(s.hosts[i+1:], s.hosts[i:])
	s.hosts[i] = string(h)
}

// chunkBits sets the element count of one storage chunk. A chunk is
// never copied as a shard grows, so element pointers stay valid and a
// week's state allocates its final size once instead of every regrowth.
const chunkBits = 10

// chunked is an append-only sequence stored in fixed-size chunks and
// addressed by 1-based position.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

// push appends v and returns a pointer to it and its position.
func (c *chunked[T]) push(v T) (*T, uint32) {
	if c.n&(1<<chunkBits-1) == 0 {
		c.chunks = append(c.chunks, make([]T, 1<<chunkBits))
	}
	p := c.at(uint32(c.n + 1))
	*p = v
	c.n++
	return p, uint32(c.n)
}

// at returns the element at position pos (1 ≤ pos ≤ n).
func (c *chunked[T]) at(pos uint32) *T {
	i := pos - 1
	return &c.chunks[i>>chunkBits][i&(1<<chunkBits-1)]
}

// slot is one observed IP's state in a shard.
type slot struct {
	ip packet.IPv4Addr
	id entity.ID
	IPStats
}

// shard is one worker's private accumulator: a value slot per observed
// IP, reached through an index over entity IDs, and the port and host
// sets those slots refer to.
type shard struct {
	index []uint32 // entity ID → slot position; 0 = not observed
	slots chunked[slot]
	sets  chunked[ipSets]
}

// slotOf returns id's slot, appending a fresh one on first sight.
func (sh *shard) slotOf(id entity.ID, ip packet.IPv4Addr) *slot {
	if int(id) >= len(sh.index) {
		grown := make([]uint32, int(id)+1+len(sh.index)/2)
		copy(grown, sh.index)
		sh.index = grown
	}
	if pos := sh.index[id]; pos != 0 {
		return sh.slots.at(pos)
	}
	sl, pos := sh.slots.push(slot{ip: ip, id: id, IPStats: IPStats{SrcMember: -1}})
	sh.index[id] = pos
	return sl
}

// setsOf returns st's port and host sets, creating them on first use.
func (sh *shard) setsOf(st *IPStats) *ipSets {
	if st.sets == 0 {
		var sets *ipSets
		sets, st.sets = sh.sets.push(ipSets{})
		return sets
	}
	return sh.sets.at(st.sets)
}

// candidate443 records one port-443 contact of st.
func (sh *shard) candidate443(st *IPStats, bytes uint64) {
	st.Candidate443 = true
	st.Bytes443 += bytes
	sh.setsOf(st).addPort(443)
}

// merge folds o, a slot of shard from, into st, a slot of sh. All
// fields are either commutative-associative (counters, byte totals,
// candidacy OR, k-smallest capped sets) or resolved by the global
// sample sequence (SrcMember), so the result is independent of shard
// assignment and merge order.
func (sh *shard) merge(st, o *IPStats, from *shard) {
	st.ServerHits += o.ServerHits
	st.ClientHits += o.ClientHits
	st.BytesTotal += o.BytesTotal
	st.Bytes443 += o.Bytes443
	st.Candidate443 = st.Candidate443 || o.Candidate443
	if o.sets != 0 {
		os, sets := from.sets.at(o.sets), sh.setsOf(st)
		for _, p := range os.ports[:os.nPorts] {
			sets.addPort(p)
		}
		for _, h := range os.hosts {
			addHost(sets, h)
		}
	}
	if o.SrcMember != -1 && (st.SrcMember == -1 || o.srcSeq > st.srcSeq) {
		st.SrcMember = o.SrcMember
		st.srcSeq = o.srcSeq
	}
}

// Identifier consumes peering records and accumulates per-IP evidence,
// keyed by the IPs' dense IDs in an entity table. NewSharded builds one
// accumulator per worker so a parallel dissect pool can observe records
// concurrently — each worker owning one shard index — with Identify
// merging the shards deterministically; one shard is the serial
// accumulator.
type Identifier struct {
	shards []shard
	m      *Metrics
}

// NewSharded returns an identifier with n independent shards (n < 1 is
// treated as 1) keyed by table's IDs. ObserveIDs(i, ...) may be called
// concurrently for distinct i; the merge in Identify produces results
// identical to a serial pass over the same samples in stream order.
// Each shard's ID index starts at the table's current size, so a table
// shared across weeks does not make every week regrow it.
func NewSharded(n int, table *entity.Table) *Identifier {
	if n < 1 {
		n = 1
	}
	id := &Identifier{shards: make([]shard, n)}
	size := table.Len()
	for i := range id.shards {
		id.shards[i].index = make([]uint32, size)
	}
	return id
}

// SetMetrics attaches an observability bundle (nil detaches). Call
// before the identifier is shared between goroutines.
func (id *Identifier) SetMetrics(m *Metrics) { id.m = m }

// ObserveIDs processes one peering record on the given shard. src and
// dst are its endpoints' IDs in the table the identifier was built
// over, equal exactly when the record is self-addressed. seq is the
// record's global stream position (assigned by the producer before
// fan-out); it breaks last-writer ties during the merge, so equal
// results fall out regardless of which worker saw which record.
// Concurrent calls must use distinct shard indices.
func (id *Identifier) ObserveIDs(shardIdx int, rec *dissect.Record, src, dst entity.ID, seq uint64) {
	sh := &id.shards[shardIdx]
	s, d := &sh.slotOf(src, rec.SrcIP).IPStats, &sh.slotOf(dst, rec.DstIP).IPStats
	if rec.Class == dissect.ClassPeeringTCP {
		// HTTPS candidates: any endpoint contacted on TCP 443.
		if rec.DstPort == 443 {
			sh.candidate443(d, rec.Bytes)
		}
		if rec.SrcPort == 443 {
			sh.candidate443(s, rec.Bytes)
		}
	}
	// Every endpoint accumulates its total peering traffic; server
	// identification later decides whose totals count as server-related.
	s.BytesTotal += rec.Bytes
	s.SrcMember = rec.InMember
	s.srcSeq = seq
	d.BytesTotal += rec.Bytes

	kind := classifyPayload(rec.Payload)
	if id.m != nil {
		id.m.payload(kind)
	}
	switch kind {
	case payloadHTTPRequest:
		// The destination acts as server, the source as client.
		d.ServerHits++
		sets := sh.setsOf(d)
		sets.addPort(rec.DstPort)
		if h, ok := extractHost(rec.Payload); ok {
			addHost(sets, h)
			if id.m != nil {
				id.m.HostsExtracted.Inc()
			}
		}
		s.ClientHits++
	case payloadHTTPResponse:
		s.ServerHits++
		sh.setsOf(s).addPort(rec.SrcPort)
		d.ClientHits++
	case payloadHTTPHeaderOnly:
		// Mid-stream header material: attribute the server role to the
		// well-known-port side when one exists.
		switch {
		case isWebPort(rec.SrcPort):
			s.ServerHits++
			sh.setsOf(s).addPort(rec.SrcPort)
		case isWebPort(rec.DstPort):
			d.ServerHits++
			sh.setsOf(d).addPort(rec.DstPort)
		}
	default:
		// Opaque payload: still track RTMP-style multi-purpose port use
		// for IPs that string matching identifies elsewhere.
		if rec.Class == dissect.ClassPeeringTCP && rec.SrcPort == 1935 {
			sh.setsOf(s).addPort(1935)
		}
	}
}

// merged collapses all shards into shard 0 and returns it, matching
// slots by entity ID. The per-IP merge is order-independent (see
// shard.merge), so the result does not depend on how the stream was
// partitioned.
func (id *Identifier) merged() *shard {
	dst := &id.shards[0]
	if len(id.shards) == 1 {
		return dst
	}
	start := time.Now()
	for i := 1; i < len(id.shards); i++ {
		from := &id.shards[i]
		for pos := 1; pos <= from.slots.n; pos++ {
			o := from.slots.at(uint32(pos))
			dst.merge(&dst.slotOf(o.id, o.ip).IPStats, &o.IPStats, from)
		}
		id.shards[i] = shard{}
	}
	if id.m != nil {
		id.m.MergeNanos.ObserveSince(start)
	}
	return dst
}

// server builds the Server record of a slot from its aggregates.
func (sh *shard) server(sl *slot) *Server {
	srv := &Server{IP: sl.ip, Bytes: sl.BytesTotal, AlsoClient: sl.ClientHits > 0, Member: sl.SrcMember}
	if sl.sets != 0 {
		sets := sh.sets.at(sl.sets)
		if sets.nPorts > 0 {
			srv.Ports = slices.Clone(sets.ports[:sets.nPorts])
		}
		srv.Hosts = sets.hosts
	}
	return srv
}

func isWebPort(p uint16) bool {
	return p == 80 || p == 8080 || p == 443 || p == 1935
}

// CertCrawler abstracts the active HTTPS measurement.
type CertCrawler interface {
	CrawlAndValidate(ip packet.IPv4Addr, isoWeek int) (certsim.Info, bool)
	Crawl(ip packet.IPv4Addr, isoWeek int) certsim.CrawlResult
}

// Server is one identified Web server IP.
type Server struct {
	IP    packet.IPv4Addr
	HTTP  bool
	HTTPS bool
	// Bytes is the represented server-related traffic of the IP.
	Bytes uint64
	// Ports seen on the server side.
	Ports []uint16
	// Hosts are the observed Host header values (URIs).
	Hosts []string
	// AlsoClient marks IPs that additionally act as clients.
	AlsoClient bool
	// Member is the member AS index whose IXP port carried the
	// server's source-side traffic.
	Member int32
	// Cert carries the validated certificate meta-data, if HTTPS.
	Cert certsim.Info
}

// Result is the outcome of a week's identification.
type Result struct {
	// Week is the ISO week analysed.
	Week int
	// Servers maps every identified server IP to its record.
	Servers map[packet.IPv4Addr]*Server
	// Candidates443 is the size of the HTTPS candidate set.
	Candidates443 int
	// Responded443 is how many candidates answered the crawl.
	Responded443 int
	// Valid443 is how many validated as HTTPS servers.
	Valid443 int
	// TotalIPs is the number of distinct endpoint IPs observed.
	TotalIPs int
	// ServerBytes is the total represented server-related traffic.
	ServerBytes uint64
	// EstLoss is a data-quality annotation: the estimated fraction of
	// the week's sFlow datagrams that never reached the analysis
	// (derived from per-agent sequence gaps). Filled in by the pipeline,
	// not the identifier; 0 means no measured loss.
	EstLoss float64
}

// Identify finalizes the week: merges the shards deterministically,
// applies the server criteria and runs the HTTPS crawl over the
// candidate set. A nil crawler means no crawl: candidates are still
// counted, but none responds or validates. It must not run concurrently
// with ObserveIDs.
func (id *Identifier) Identify(isoWeek int, crawler CertCrawler) *Result {
	sh := id.merged()
	res := &Result{
		Week:     isoWeek,
		Servers:  make(map[packet.IPv4Addr]*Server, sh.slots.n/4),
		TotalIPs: sh.slots.n,
	}
	roots := crawlRoots(crawler)
	for pos := 1; pos <= sh.slots.n; pos++ {
		sl := sh.slots.at(uint32(pos))
		var srv *Server
		if sl.ServerHits > 0 {
			srv = sh.server(sl)
			srv.HTTP = true
		}
		if sl.Candidate443 {
			res.Candidates443++
			if crawler != nil {
				if info, ok := id.crawl(res, crawler, roots, sl.ip, isoWeek); ok {
					if srv == nil {
						srv = sh.server(sl)
					}
					srv.HTTPS = true
					srv.Cert = info
				}
			}
		}
		if srv != nil {
			res.Servers[sl.ip] = srv
			res.ServerBytes += srv.Bytes
		}
	}
	return res
}

// crawl runs the HTTPS check on one port-443 candidate, counting the
// funnel in res and the metrics, and reports whether it validated.
func (id *Identifier) crawl(res *Result, crawler CertCrawler, roots map[string]bool, ip packet.IPv4Addr, isoWeek int) (certsim.Info, bool) {
	id.m.crawlAttempt()
	crawl := crawler.Crawl(ip, isoWeek)
	if crawl.Responded {
		res.Responded443++
		id.m.crawlResponse()
	}
	info, reason := validateCrawl(crawler, roots, ip, crawl, isoWeek)
	if reason != certsim.RejectNone {
		id.m.crawlReject(reason)
		return certsim.Info{}, false
	}
	res.Valid443++
	id.m.crawlValid()
	return info, true
}

// validateCrawl applies the certificate checks to one candidate. With an
// inspectable trust store the checks run here, yielding a precise
// rejection reason; without one, validation falls back to the crawler's
// own CrawlAndValidate composition — passing a nil trust store to
// certsim.Validate would instead reject every chain, silently emptying
// the HTTPS set.
func validateCrawl(crawler CertCrawler, roots map[string]bool, ip packet.IPv4Addr, crawl certsim.CrawlResult, isoWeek int) (certsim.Info, certsim.RejectReason) {
	if roots != nil {
		return certsim.ValidateDetail(crawl, roots, isoWeek)
	}
	if info, ok := crawler.CrawlAndValidate(ip, isoWeek); ok {
		return info, certsim.RejectNone
	}
	if !crawl.Responded {
		return certsim.Info{}, certsim.RejectNoResponse
	}
	return certsim.Info{}, certsim.RejectCrawler
}

// crawlAttempt, crawlResponse, crawlValid and crawlReject tolerate a nil
// bundle so Identify stays branch-light.
func (m *Metrics) crawlAttempt() {
	if m != nil {
		m.CrawlAttempts.Inc()
	}
}

func (m *Metrics) crawlResponse() {
	if m != nil {
		m.CrawlResponses.Inc()
	}
}

func (m *Metrics) crawlValid() {
	if m != nil {
		m.CrawlValid.Inc()
	}
}

func (m *Metrics) crawlReject(reason certsim.RejectReason) {
	if m != nil && reason > certsim.RejectNone && reason < certsim.NumRejectReasons {
		m.ValidateFail[reason].Inc()
	}
}

// crawlRoots extracts the trust store when the crawler can provide one
// (certsim.Crawler implements Roots()); validateCrawl falls back to the
// crawler's own CrawlAndValidate otherwise.
func crawlRoots(c CertCrawler) map[string]bool {
	if r, ok := c.(interface{ Roots() map[string]bool }); ok {
		return r.Roots()
	}
	return nil
}

// RankedServers returns every server in the result's total order: bytes
// descending, IP ascending. IPs are unique, so the order has no ties and
// any top-n is a prefix of it.
func (r *Result) RankedServers() []*Server {
	out := make([]*Server, 0, len(r.Servers))
	for _, s := range r.Servers {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b *Server) int {
		if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
			return c
		}
		return cmp.Compare(a.IP, b.IP)
	})
	return out
}

// TopServers returns the n highest-traffic servers, descending.
func (r *Result) TopServers(n int) []*Server {
	out := r.RankedServers()
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// MultiPurpose counts servers seen active on more than one service port.
func (r *Result) MultiPurpose() int {
	n := 0
	for _, s := range r.Servers {
		if len(s.Ports) > 1 {
			n++
		}
	}
	return n
}

// DualRole counts servers that also act as clients.
func (r *Result) DualRole() int {
	n := 0
	for _, s := range r.Servers {
		if s.AlsoClient {
			n++
		}
	}
	return n
}
