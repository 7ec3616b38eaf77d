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
	"fmt"
	"sort"
	"time"

	"ixplens/internal/certsim"
	"ixplens/internal/core/dissect"
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

// Pattern 2: common header field words from the RFCs and W3C specs.
var headerWords = [][]byte{
	[]byte("Host: "), []byte("Server: "), []byte("Content-Type: "),
	[]byte("Content-Length: "), []byte("User-Agent: "), []byte("Cache-Control: "),
	[]byte("Access-Control-Allow-Methods: "), []byte("Set-Cookie: "),
	[]byte("Accept: "), []byte("Location: "),
}

var httpVersionWord = []byte(" HTTP/1.")

// classifyPayload applies the two string-matching patterns.
func classifyPayload(p []byte) payloadKind {
	if len(p) == 0 {
		return payloadOpaque
	}
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
	for _, h := range headerWords {
		if containsHeaderField(p, h) {
			return payloadHTTPHeaderOnly
		}
	}
	return payloadOpaque
}

// fieldNameByte reports whether c can be part of an HTTP header field
// name as they occur in practice (letters, digits, '-', '_').
func fieldNameByte(c byte) bool {
	return c == '-' || c == '_' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// containsHeaderField reports whether name occurs where a header field
// can actually start. A bare bytes.Contains also matches mid-token
// occurrences — "Host: " inside "X-Forwarded-Host: " — and misattributes
// them. Because the 128-byte snap can begin mid-stream, a match is
// accepted at the payload start, after CR/LF, or after any byte that
// cannot be part of a longer field name.
func containsHeaderField(p, name []byte) bool {
	for off := 0; ; {
		j := bytes.Index(p[off:], name)
		if j < 0 {
			return false
		}
		k := off + j
		if k == 0 || !fieldNameByte(p[k-1]) {
			return true
		}
		off = k + 1
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
// the meta-data cleaning step downstream drops junk.
func extractHost(p []byte) (string, bool) {
	i := indexHeaderValue(p, []byte("Host:"))
	if i < 0 {
		return "", false
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
		return "", false
	}
	return string(rest), true
}

func allDigits(b []byte) bool {
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// IPStats aggregates everything observed about one IP endpoint.
type IPStats struct {
	// ServerHits counts samples where string matching placed the IP on
	// the server side; ClientHits the client side.
	ServerHits int
	ClientHits int
	// BytesTotal is the represented traffic of every peering sample the
	// IP participated in (either side). Once an IP is identified as a
	// server, this is the traffic it is "responsible for or sees",
	// matching the paper's >70%-of-peering-traffic accounting.
	BytesTotal uint64
	// Ports the IP was contacted on (server side), capped small set.
	Ports []uint16
	// Hosts collects observed Host header values for requests to this
	// IP (the URI meta-data of Section 2.4), capped.
	Hosts []string
	// Candidate443 marks port-443 contact (HTTPS candidate set).
	Candidate443 bool
	// SrcMember is the member AS index whose port last carried traffic
	// sourced by this IP (-1 before any source-side sample). The IXP
	// knows its port-to-customer mapping, so this is measurement-side
	// information (used e.g. to watch reseller growth).
	SrcMember int32
	// Bytes443 is represented traffic on port 443.
	Bytes443 uint64
	// srcSeq is the stream position of the sample that last set
	// SrcMember, so the shard merge can reproduce the serial
	// last-writer-wins outcome regardless of how samples were
	// partitioned across shards.
	srcSeq uint64
}

const (
	maxPortsPerIP = 8
	maxHostsPerIP = 12
)

// addPort keeps the maxPortsPerIP numerically smallest distinct ports,
// sorted ascending. "k smallest" (rather than "first k encountered")
// makes the capped set a pure function of the sample multiset: merging
// two shards' sets yields exactly the set a serial pass over the union
// would keep, which the deterministic shard merge depends on.
func (s *IPStats) addPort(p uint16) {
	i := sort.Search(len(s.Ports), func(i int) bool { return s.Ports[i] >= p })
	if i < len(s.Ports) && s.Ports[i] == p {
		return
	}
	if len(s.Ports) < maxPortsPerIP {
		s.Ports = append(s.Ports, 0)
	} else if i == len(s.Ports) {
		return // full and p is larger than everything kept
	}
	copy(s.Ports[i+1:], s.Ports[i:])
	s.Ports[i] = p
}

// addHost keeps the maxHostsPerIP lexicographically smallest distinct
// Host values, sorted — partition-independent for the same reason as
// addPort.
func (s *IPStats) addHost(h string) {
	i := sort.SearchStrings(s.Hosts, h)
	if i < len(s.Hosts) && s.Hosts[i] == h {
		return
	}
	if len(s.Hosts) < maxHostsPerIP {
		s.Hosts = append(s.Hosts, "")
	} else if i == len(s.Hosts) {
		return
	}
	copy(s.Hosts[i+1:], s.Hosts[i:])
	s.Hosts[i] = h
}

// merge folds another shard's evidence about the same IP into s. All
// fields are either commutative-associative (counters, byte totals,
// candidacy OR, k-smallest capped sets) or resolved by the global
// sample sequence (SrcMember), so the result is independent of shard
// assignment and merge order.
func (s *IPStats) merge(o *IPStats) {
	s.ServerHits += o.ServerHits
	s.ClientHits += o.ClientHits
	s.BytesTotal += o.BytesTotal
	s.Bytes443 += o.Bytes443
	s.Candidate443 = s.Candidate443 || o.Candidate443
	for _, p := range o.Ports {
		s.addPort(p)
	}
	for _, h := range o.Hosts {
		s.addHost(h)
	}
	if o.SrcMember != -1 && (s.SrcMember == -1 || o.srcSeq > s.srcSeq) {
		s.SrcMember = o.SrcMember
		s.srcSeq = o.srcSeq
	}
}

// shard is one worker's private accumulator: a stats map plus the
// auto-sequence used when records arrive through the serial Observe
// path.
type shard struct {
	stats map[packet.IPv4Addr]*IPStats
	seq   uint64
}

// Identifier consumes peering records and accumulates per-IP evidence.
// With one shard (NewIdentifier) it is the familiar serial accumulator;
// NewSharded builds one accumulator per worker so a parallel dissect
// pool can observe records concurrently — each worker owning one shard
// index — with Identify merging the shards deterministically.
type Identifier struct {
	shards []shard
	m      *Metrics
}

// NewIdentifier returns an empty single-shard identifier.
func NewIdentifier() *Identifier { return NewSharded(1) }

// NewSharded returns an identifier with n independent shards (n < 1 is
// treated as 1). ObserveShard(i, ...) may be called concurrently for
// distinct i; the merge in Identify produces results identical to a
// serial pass over the same samples in stream order.
func NewSharded(n int) *Identifier {
	if n < 1 {
		n = 1
	}
	id := &Identifier{shards: make([]shard, n)}
	for i := range id.shards {
		id.shards[i].stats = make(map[packet.IPv4Addr]*IPStats, 1<<12/n)
	}
	return id
}

// NumShards returns the shard count the identifier was built with.
func (id *Identifier) NumShards() int { return len(id.shards) }

// SetMetrics attaches an observability bundle (nil detaches). Call
// before the identifier is shared between goroutines.
func (id *Identifier) SetMetrics(m *Metrics) { id.m = m }

func (sh *shard) get(ip packet.IPv4Addr) *IPStats {
	s := sh.stats[ip]
	if s == nil {
		s = &IPStats{SrcMember: -1}
		sh.stats[ip] = s
	}
	return s
}

// Observe processes one peering record on shard 0, with an
// automatically assigned stream sequence. This is the serial path: it
// must not race with ObserveShard or a concurrent Observe.
func (id *Identifier) Observe(rec *dissect.Record) {
	sh := &id.shards[0]
	seq := sh.seq
	sh.seq++
	id.observe(sh, rec, seq)
}

// ObserveShard processes one peering record on the given shard. seq is
// the record's global stream position (assigned by the producer before
// fan-out); it breaks last-writer ties during the merge, so equal
// results fall out regardless of which worker saw which record.
// Concurrent calls must use distinct shard indices.
func (id *Identifier) ObserveShard(shardIdx int, rec *dissect.Record, seq uint64) {
	id.observe(&id.shards[shardIdx], rec, seq)
}

func (id *Identifier) observe(sh *shard, rec *dissect.Record, seq uint64) {
	if !rec.Class.IsPeering() {
		return
	}
	if rec.Class == dissect.ClassPeeringTCP {
		// HTTPS candidates: any endpoint contacted on TCP 443.
		if rec.DstPort == 443 {
			d := sh.get(rec.DstIP)
			d.Candidate443 = true
			d.Bytes443 += rec.Bytes
			d.addPort(443)
		}
		if rec.SrcPort == 443 {
			s := sh.get(rec.SrcIP)
			s.Candidate443 = true
			s.Bytes443 += rec.Bytes
			s.addPort(443)
		}
	}
	// Every endpoint accumulates its total peering traffic; server
	// identification later decides whose totals count as server-related.
	src := sh.get(rec.SrcIP)
	src.BytesTotal += rec.Bytes
	src.SrcMember = rec.InMember
	src.srcSeq = seq
	sh.get(rec.DstIP).BytesTotal += rec.Bytes

	kind := classifyPayload(rec.Payload)
	if id.m != nil {
		id.m.payload(kind)
	}
	switch kind {
	case payloadHTTPRequest:
		// The destination acts as server, the source as client.
		srv := sh.get(rec.DstIP)
		srv.ServerHits++
		srv.addPort(rec.DstPort)
		if h, ok := extractHost(rec.Payload); ok {
			srv.addHost(h)
			if id.m != nil {
				id.m.HostsExtracted.Inc()
			}
		}
		sh.get(rec.SrcIP).ClientHits++
	case payloadHTTPResponse:
		srv := sh.get(rec.SrcIP)
		srv.ServerHits++
		srv.addPort(rec.SrcPort)
		sh.get(rec.DstIP).ClientHits++
	case payloadHTTPHeaderOnly:
		// Mid-stream header material: attribute the server role to the
		// well-known-port side when one exists.
		switch {
		case isWebPort(rec.SrcPort):
			srv := sh.get(rec.SrcIP)
			srv.ServerHits++
			srv.addPort(rec.SrcPort)
		case isWebPort(rec.DstPort):
			srv := sh.get(rec.DstIP)
			srv.ServerHits++
			srv.addPort(rec.DstPort)
		}
	default:
		// Opaque payload: still track RTMP-style multi-purpose port use
		// for IPs that string matching identifies elsewhere.
		if rec.Class == dissect.ClassPeeringTCP && rec.SrcPort == 1935 {
			sh.get(rec.SrcIP).addPort(1935)
		}
	}
}

// merged collapses all shards into shard 0's map and returns it. The
// per-IP merge is order-independent (see IPStats.merge), so the result
// does not depend on how the stream was partitioned.
func (id *Identifier) merged() map[packet.IPv4Addr]*IPStats {
	dst := id.shards[0].stats
	if len(id.shards) == 1 {
		return dst
	}
	start := time.Now()
	for i := 1; i < len(id.shards); i++ {
		for ip, st := range id.shards[i].stats {
			if d, ok := dst[ip]; ok {
				d.merge(st)
			} else {
				dst[ip] = st
			}
		}
		id.shards[i].stats = nil
	}
	if id.m != nil {
		id.m.MergeNanos.ObserveSince(start)
	}
	return dst
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
// candidate set. It must not run concurrently with Observe/ObserveShard.
func (id *Identifier) Identify(isoWeek int, crawler CertCrawler) *Result {
	stats := id.merged()
	res := &Result{
		Week:    isoWeek,
		Servers: make(map[packet.IPv4Addr]*Server, len(stats)/4),
	}
	res.TotalIPs = len(stats)
	roots := crawlRoots(crawler)
	for ip, st := range stats {
		isHTTP := st.ServerHits > 0
		var srv *Server
		if isHTTP {
			srv = &Server{
				IP: ip, HTTP: true, Bytes: st.BytesTotal,
				Ports: st.Ports, Hosts: st.Hosts,
				AlsoClient: st.ClientHits > 0, Member: st.SrcMember,
			}
		}
		if st.Candidate443 {
			res.Candidates443++
			id.m.crawlAttempt()
			crawl := crawler.Crawl(ip, isoWeek)
			if crawl.Responded {
				res.Responded443++
				id.m.crawlResponse()
			}
			info, reason := validateCrawl(crawler, roots, ip, crawl, isoWeek)
			if reason == certsim.RejectNone {
				res.Valid443++
				id.m.crawlValid()
				if srv == nil {
					srv = &Server{IP: ip, Bytes: st.BytesTotal, Ports: st.Ports,
						Hosts: st.Hosts, AlsoClient: st.ClientHits > 0, Member: st.SrcMember}
				}
				srv.HTTPS = true
				srv.Cert = info
			} else {
				id.m.crawlReject(reason)
			}
		}
		if srv != nil {
			res.Servers[ip] = srv
			res.ServerBytes += srv.Bytes
		}
	}
	return res
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].IP < out[j].IP
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
