package webserver

import (
	"context"
	"fmt"
	"testing"

	"ixplens/internal/certsim"
	"ixplens/internal/core/dissect"
	"ixplens/internal/dnssim"
	"ixplens/internal/ixp"
	"ixplens/internal/netmodel"
	"ixplens/internal/obs"
	"ixplens/internal/packet"
	"ixplens/internal/sflow"
	"ixplens/internal/traffic"
)

type weekEnv struct {
	w       *netmodel.World
	fabric  *ixp.Fabric
	dns     *dnssim.DB
	crawler *certsim.Crawler
	src     *dissect.SliceSource
	stats   traffic.WeekStats
}

func buildEnv(t testing.TB, week int) *weekEnv {
	t.Helper()
	w, err := netmodel.Generate(netmodel.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dns := dnssim.New(w)
	fabric := ixp.NewFabric(w)
	gen := traffic.NewGenerator(w, dns, fabric, traffic.DefaultOptions())
	src := &dissect.SliceSource{}
	col := ixp.NewCollector(fabric, 16384, func(d *sflow.Datagram) error {
		cp := *d
		cp.Flows = make([]sflow.FlowSample, len(d.Flows))
		for i := range d.Flows {
			cp.Flows[i] = d.Flows[i]
			hdr := make([]byte, len(d.Flows[i].Raw.Header))
			copy(hdr, d.Flows[i].Raw.Header)
			cp.Flows[i].Raw.Header = hdr
		}
		src.Datagrams = append(src.Datagrams, cp)
		return nil
	})
	stats, err := gen.GenerateWeek(week, col)
	if err != nil {
		t.Fatal(err)
	}
	return &weekEnv{w: w, fabric: fabric, dns: dns,
		crawler: certsim.NewCrawler(w, dns), src: src, stats: stats}
}

func identify(t testing.TB, env *weekEnv, week int) *Result {
	t.Helper()
	id := newTestIdentifier(1)
	if _, err := dissect.ProcessSharded(context.Background(), env.src, env.fabric, 1, id.observe, nil); err != nil {
		t.Fatal(err)
	}
	env.src.Reset()
	return id.Identify(week, env.crawler)
}

func TestIdentificationPrecision(t *testing.T) {
	env := buildEnv(t, 45)
	res := identify(t, env, 45)
	if len(res.Servers) < 200 {
		t.Fatalf("only %d servers identified", len(res.Servers))
	}
	falsePos := 0
	for ip, srv := range res.Servers {
		idx, ok := env.w.ServerByIP(ip)
		if !ok {
			falsePos++
			continue
		}
		s := &env.w.Servers[idx]
		if srv.HTTPS && !s.Is(netmodel.SrvHTTPS) {
			t.Fatalf("HTTPS claimed for non-HTTPS server %v", ip)
		}
		_ = s
	}
	if falsePos > 0 {
		t.Fatalf("%d non-server IPs identified as servers", falsePos)
	}
}

func TestIdentificationRecallOfSampled(t *testing.T) {
	env := buildEnv(t, 45)
	res := identify(t, env, 45)
	// Every ground-truth server that was actually sampled with an HTTP
	// header packet should be found; a weaker, robust check: recall over
	// sampled servers is high.
	recall := float64(len(res.Servers)) / float64(env.stats.SampledServers)
	if recall < 0.55 {
		t.Fatalf("identified %d of %d sampled servers (recall %.2f)",
			len(res.Servers), env.stats.SampledServers, recall)
	}
}

func TestServerTrafficShare(t *testing.T) {
	env := buildEnv(t, 45)
	id := newTestIdentifier(1)
	var peeringBytes uint64
	_, err := dissect.ProcessSharded(context.Background(), env.src, env.fabric, 1, func(w int, rec *dissect.Record, seq uint64) {
		if rec.Class.IsPeering() {
			peeringBytes += rec.Bytes
		}
		id.observe(w, rec, seq)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := id.Identify(45, env.crawler)
	share := float64(res.ServerBytes) / float64(peeringBytes)
	// Paper: server IPs see/are responsible for >70% of peering traffic.
	if share < 0.60 || share > 1.0 {
		t.Fatalf("server traffic share %.3f out of band", share)
	}
}

func TestHTTPSCrawlFunnel(t *testing.T) {
	env := buildEnv(t, 45)
	res := identify(t, env, 45)
	if res.Candidates443 == 0 || res.Valid443 == 0 {
		t.Fatalf("crawl funnel empty: %+v", res)
	}
	if res.Valid443 > res.Responded443 || res.Responded443 > res.Candidates443 {
		t.Fatalf("funnel not monotone: %d -> %d -> %d",
			res.Candidates443, res.Responded443, res.Valid443)
	}
	// HTTPS servers must carry certificate meta-data.
	for _, srv := range res.Servers {
		if srv.HTTPS && srv.Cert.Subject == "" {
			t.Fatal("HTTPS server without certificate info")
		}
	}
}

func TestHostsCollected(t *testing.T) {
	env := buildEnv(t, 45)
	res := identify(t, env, 45)
	withHosts, junk, known := 0, 0, 0
	for _, srv := range res.Servers {
		if len(srv.Hosts) > 0 {
			withHosts++
			for _, h := range srv.Hosts {
				if _, ok := env.dns.SOA(dnssim.RegistrableDomain(h)); ok {
					known++
				} else {
					junk++ // bots and IP-literal scans; cleaned later
				}
			}
		}
	}
	if withHosts == 0 {
		t.Fatal("no URIs collected")
	}
	if known == 0 {
		t.Fatal("no resolvable URIs collected")
	}
	if junk > known/5 {
		t.Fatalf("junk hosts dominate: %d junk vs %d known", junk, known)
	}
}

func TestDualRoleAndMultiPurpose(t *testing.T) {
	env := buildEnv(t, 45)
	res := identify(t, env, 45)
	if res.DualRole() == 0 {
		t.Fatal("no dual-role servers found (machine-to-machine traffic exists)")
	}
	if res.MultiPurpose() == 0 {
		t.Fatal("no multi-purpose servers found")
	}
}

func TestTopServers(t *testing.T) {
	env := buildEnv(t, 45)
	res := identify(t, env, 45)
	top := res.TopServers(10)
	if len(top) != 10 {
		t.Fatalf("TopServers returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Bytes > top[i-1].Bytes {
			t.Fatal("TopServers not sorted")
		}
	}
	if got := res.TopServers(1 << 30); len(got) != len(res.Servers) {
		t.Fatal("TopServers cap wrong")
	}
}

func TestClassifyPayloadPatterns(t *testing.T) {
	cases := []struct {
		payload string
		want    payloadKind
	}{
		{"GET /x HTTP/1.1\r\nHost: a.b\r\n", payloadHTTPRequest},
		{"POST /submit HTTP/1.0\r\n", payloadHTTPRequest},
		{"HEAD / HTTP/1.1\r\n", payloadHTTPRequest},
		{"HTTP/1.1 200 OK\r\nServer: x\r\n", payloadHTTPResponse},
		{"HTTP/1.0 404 Not Found\r\n", payloadHTTPResponse},
		{"...Content-Type: text/html\r\n...", payloadHTTPHeaderOnly},
		{"...Set-Cookie: a=1\r\n", payloadHTTPHeaderOnly},
		{"GET lacking version word", payloadOpaque},
		{"\x17\x03\x03\x01\x00\x8a\x91", payloadOpaque},
		{"", payloadOpaque},
		{"random text without markers", payloadOpaque},
		// A header word matched mid-token is another field's suffix, not
		// evidence of HTTP: X-Forwarded-Host must not satisfy the Host:
		// scan, and binary junk containing the bytes mid-word must not
		// either.
		{"\x00\x01X-Forwarded-Host: h.example\r\n\x02", payloadOpaque},
		{"junkSet-Cookie: a=1\r\n", payloadOpaque},
		// At a snap boundary the field can open the payload.
		{"Host: cut.example.org\r\nAccept: */*\r\n", payloadHTTPHeaderOnly},
		{"\r\nHost: after-crlf.example\r\n", payloadHTTPHeaderOnly},
	}
	for _, c := range cases {
		if got := classifyPayload([]byte(c.payload)); got != c.want {
			t.Errorf("classifyPayload(%q) = %d, want %d", c.payload, got, c.want)
		}
	}
}

func TestExtractHost(t *testing.T) {
	cases := []struct {
		name    string
		payload string
		want    string
		ok      bool
	}{
		{"crlf", "GET / HTTP/1.1\r\nHost: www.example.org\r\nAccept: */*\r\n", "www.example.org", true},
		{"missing", "GET / HTTP/1.1\r\nAccept: */*\r\n", "", false},
		// A value cut at the 128-byte snap boundary is indistinguishable
		// from a complete one; accept it and let cleaning judge.
		{"payload-end", "GET / HTTP/1.1\r\nHost: truncat", "truncat", true},
		{"lf-only", "GET / HTTP/1.1\nHost: lf.example.net\nAccept: */*\n", "lf.example.net", true},
		{"trailing-space", "GET / HTTP/1.1\r\nHost: padded.example.com \r\n", "padded.example.com", true},
		{"port", "GET / HTTP/1.1\r\nHost: example.com:8080\r\n", "example.com", true},
		{"port-at-end", "GET / HTTP/1.1\r\nHost: example.com:443", "example.com", true},
		{"bare-colon", "GET / HTTP/1.1\r\nHost: odd.example.com:\r\n", "odd.example.com:", true},
		{"empty-value", "GET / HTTP/1.1\r\nHost: \r\n", "", false},
		{"empty-at-end", "GET / HTTP/1.1\r\nHost:", "", false},
		// "Host:" inside another field name is not the Host header; only a
		// match at the payload start or right after a line break counts.
		{"x-forwarded-host", "GET / HTTP/1.1\r\nX-Forwarded-Host: evil.example\r\n", "", false},
		{"forwarded-then-real", "GET / HTTP/1.1\r\nX-Forwarded-Host: evil.example\r\nHost: real.example\r\n", "real.example", true},
		{"host-at-start", "Host: snap.example.org\r\nAccept: */*\r\n", "snap.example.org", true},
		{"mid-token-no-break", "GET / HTTP/1.1\r\nAbcHost: nope.example\r\n", "", false},
	}
	for _, c := range cases {
		h, ok := extractHost([]byte(c.payload))
		if ok != c.ok || string(h) != c.want {
			t.Errorf("%s: extractHost(%q) = %q, %v; want %q, %v", c.name, c.payload, h, ok, c.want, c.ok)
		}
	}
}

func TestIPStatsCaps(t *testing.T) {
	var st ipSets
	for i := 0; i < 50; i++ {
		st.addPort(uint16(i))
		addHost(&st, string(rune('a'+i%26)))
	}
	if st.nPorts > maxPortsPerIP || len(st.hosts) > maxHostsPerIP {
		t.Fatalf("caps not enforced: %d ports, %d hosts", st.nPorts, len(st.hosts))
	}
	st.addPort(3)
	if st.nPorts != maxPortsPerIP {
		t.Fatal("duplicate port changed set")
	}
}

// TestObserveKnownHostAllocatesNothing pins that a Host value already in
// the capped set is matched without becoming a string.
func TestObserveKnownHostAllocatesNothing(t *testing.T) {
	id := newTestIdentifier(1)
	rec := &dissect.Record{
		Class: dissect.ClassPeeringTCP,
		SrcIP: packet.MakeIPv4(1, 2, 3, 4), DstIP: packet.MakeIPv4(5, 6, 7, 8),
		SrcPort: 44444, DstPort: 80, Bytes: 1400,
		Payload: []byte("GET / HTTP/1.1\r\nHost: www.example.org\r\n"),
	}
	id.observe(0, rec, 0)
	if allocs := testing.AllocsPerRun(100, func() { id.observe(0, rec, 1) }); allocs != 0 {
		t.Fatalf("observing a known host allocated %.1f times", allocs)
	}
	sh := &id.shards[0]
	if hosts := sh.server(sh.slots.at(2)).Hosts; len(hosts) != 1 || hosts[0] != "www.example.org" {
		t.Fatalf("hosts = %q", hosts)
	}
}

func BenchmarkObserve(b *testing.B) {
	id := newTestIdentifier(1)
	payload := []byte("GET /index.html HTTP/1.1\r\nHost: www.example.org\r\nAccept: */*\r\n\r\n")
	rec := &dissect.Record{
		Class: dissect.ClassPeeringTCP,
		SrcIP: packet.MakeIPv4(1, 2, 3, 4), DstIP: packet.MakeIPv4(5, 6, 7, 8),
		SrcPort: 44444, DstPort: 80, Bytes: 1400 * 16384, Payload: payload,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id.observe(0, rec, uint64(i))
	}
}

// rootlessCrawler hides the trust store: it forwards Crawl and
// CrawlAndValidate but does not implement Roots(), so Identify must fall
// back to the crawler's own validation instead of passing a nil trust
// store to certsim.Validate (which would reject every chain).
type rootlessCrawler struct{ inner CertCrawler }

func (r rootlessCrawler) Crawl(ip packet.IPv4Addr, w int) certsim.CrawlResult {
	return r.inner.Crawl(ip, w)
}

func (r rootlessCrawler) CrawlAndValidate(ip packet.IPv4Addr, w int) (certsim.Info, bool) {
	return r.inner.CrawlAndValidate(ip, w)
}

func TestIdentifyWithoutTrustStore(t *testing.T) {
	env := buildEnv(t, 45)
	direct := identify(t, env, 45)
	if direct.Valid443 == 0 {
		t.Fatal("direct crawler validated nothing; test is vacuous")
	}

	id := newTestIdentifier(1)
	if _, err := dissect.ProcessSharded(context.Background(), env.src, env.fabric, 1, id.observe, nil); err != nil {
		t.Fatal(err)
	}
	env.src.Reset()
	res := id.Identify(45, rootlessCrawler{env.crawler})

	// The Roots-less fallback must validate the exact same HTTPS set.
	if res.Valid443 != direct.Valid443 {
		t.Fatalf("rootless crawler validated %d HTTPS servers, direct validated %d",
			res.Valid443, direct.Valid443)
	}
	for ip, want := range direct.Servers {
		got := res.Servers[ip]
		if got == nil || got.HTTPS != want.HTTPS {
			t.Fatalf("server %v: HTTPS diverged between rootless and direct crawler", ip)
		}
	}
	if len(res.Servers) != len(direct.Servers) {
		t.Fatalf("server sets diverged: %d vs %d", len(res.Servers), len(direct.Servers))
	}
}

// TestCrawlRejectAccounting checks the funnel arithmetic the metrics
// promise: every rejected candidate lands in exactly one
// crawl_validate_fail{reason=...} counter, with and without a trust
// store.
func TestCrawlRejectAccounting(t *testing.T) {
	env := buildEnv(t, 45)
	crawlers := map[string]CertCrawler{
		"direct":   env.crawler,
		"rootless": rootlessCrawler{env.crawler},
	}
	for name, crawler := range crawlers {
		reg := obs.NewRegistry()
		id := newTestIdentifier(1)
		id.SetMetrics(NewMetrics(reg))
		if _, err := dissect.ProcessSharded(context.Background(), env.src, env.fabric, 1, id.observe, nil); err != nil {
			t.Fatal(err)
		}
		env.src.Reset()
		res := id.Identify(45, crawler)

		var rejected uint64
		for r := certsim.RejectReason(1); r < certsim.NumRejectReasons; r++ {
			rejected += reg.Counter(fmt.Sprintf("crawl_validate_fail{reason=%s}", r)).Value()
		}
		if want := uint64(res.Candidates443 - res.Valid443); rejected != want {
			t.Fatalf("%s: reject counters sum to %d, funnel says %d rejected", name, rejected, want)
		}
		if got := reg.Counter("webserver_crawl_attempts_total").Value(); got != uint64(res.Candidates443) {
			t.Fatalf("%s: %d crawl attempts recorded, %d candidates", name, got, res.Candidates443)
		}
		if got := reg.Counter("webserver_crawl_valid_total").Value(); got != uint64(res.Valid443) {
			t.Fatalf("%s: %d valid recorded, funnel says %d", name, got, res.Valid443)
		}
	}
}
