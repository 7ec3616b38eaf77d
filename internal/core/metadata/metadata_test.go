package metadata_test

import (
	"context"
	"testing"

	. "ixplens/internal/core/metadata"
	"ixplens/internal/core/webserver"
	"ixplens/internal/dnssim"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/traffic"
)

func analyzedWeek(t testing.TB) (*pipeline.Env, *pipeline.Week) {
	t.Helper()
	env, err := pipeline.NewEnv(netmodel.Tiny(), traffic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wk, err := env.AnalyzeWeek(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	return env, wk
}

func TestCoverageShape(t *testing.T) {
	_, wk := analyzedWeek(t)
	cov := wk.Coverage
	if cov.Total != len(wk.Servers.Servers) {
		t.Fatalf("coverage total %d != servers %d", cov.Total, len(wk.Servers.Servers))
	}
	// Paper: DNS 71.7%, URI 23.8%, cert 17.7%, any 81.9%. URI coverage
	// scales with samples-per-server, so only loose bands here.
	dns := float64(cov.WithDNS) / float64(cov.Total)
	if dns < 0.50 || dns > 0.95 {
		t.Fatalf("DNS coverage %.2f out of band", dns)
	}
	if cov.WithCert == 0 || cov.WithURI == 0 {
		t.Fatal("URI/cert coverage empty")
	}
	if cov.WithAny < cov.WithDNS || cov.WithAny < cov.WithURI {
		t.Fatal("any-coverage must dominate individual coverages")
	}
	if cov.CleanedItems == 0 {
		t.Fatal("cleaning never fired despite junk Host headers in traffic")
	}
}

func TestEvidenceAuthoritiesResolve(t *testing.T) {
	env, wk := analyzedWeek(t)
	for _, m := range wk.Metas {
		if m.HasDNS() {
			if m.HostnameEv.Domain == "" || m.HostnameEv.Authority == "" {
				t.Fatalf("DNS evidence incomplete: %+v", m.HostnameEv)
			}
			if got := dnssim.RegistrableDomain(m.Hostname); got != m.HostnameEv.Domain {
				t.Fatalf("hostname evidence domain %q != registrable %q", m.HostnameEv.Domain, got)
			}
		}
		for _, ev := range m.URIEv {
			if root, ok := env.DNS.SOA(ev.Domain); !ok || root != ev.Authority {
				t.Fatalf("URI evidence authority mismatch for %q", ev.Domain)
			}
		}
	}
}

type fakeResolver struct {
	ptr map[packet.IPv4Addr]string
	soa map[string]string
}

func (f fakeResolver) PTR(ip packet.IPv4Addr) (string, bool) {
	h, ok := f.ptr[ip]
	return h, ok
}

func (f fakeResolver) SOA(d string) (string, bool) {
	s, ok := f.soa[d]
	return s, ok
}

func TestCollectCleaning(t *testing.T) {
	ip1 := packet.MakeIPv4(9, 0, 0, 1)
	ip2 := packet.MakeIPv4(9, 0, 0, 2)
	res := &webserver.Result{
		Servers: map[packet.IPv4Addr]*webserver.Server{
			ip1: {IP: ip1, HTTP: true, Hosts: []string{
				"www.good.org",       // fine
				"10.0.0.1",           // IP literal: cleaned
				"localhost",          // single label: cleaned
				"bad host header.de", // whitespace: cleaned
				"unknown.invalid",    // no SOA: cleaned
				"ptr.ripe.example",   // infrastructure SOA: cleaned
			}},
			ip2: {IP: ip2, HTTP: true, Hosts: []string{"10.9.9.9"}},
		},
	}
	dns := fakeResolver{
		ptr: map[packet.IPv4Addr]string{ip1: "srv1.good.org"},
		soa: map[string]string{
			"good.org":     "good.org",
			"ripe.example": "ripe.example",
		},
	}
	metas, cov := Collect(res, dns)
	if cov.Total != 2 {
		t.Fatalf("total = %d", cov.Total)
	}
	var m1, m2 *ServerMeta
	for i := range metas {
		switch metas[i].IP {
		case ip1:
			m1 = &metas[i]
		case ip2:
			m2 = &metas[i]
		}
	}
	if m1 == nil || m2 == nil {
		t.Fatal("metas missing")
	}
	if !m1.HasDNS() || m1.HostnameEv.Authority != "good.org" {
		t.Fatalf("m1 DNS evidence wrong: %+v", m1.HostnameEv)
	}
	if len(m1.URIEv) != 1 || m1.URIEv[0].Domain != "good.org" {
		t.Fatalf("m1 URI evidence wrong: %+v", m1.URIEv)
	}
	// 5 junk hosts cleaned on m1.
	if cov.CleanedItems < 5 {
		t.Fatalf("cleaned %d items, want >= 5", cov.CleanedItems)
	}
	if m2.HasAny() {
		t.Fatal("m2 should have no surviving evidence")
	}
	if cov.CleanedOut != 1 {
		t.Fatalf("cleaned-out = %d, want 1", cov.CleanedOut)
	}
}

func TestServerMetaPredicates(t *testing.T) {
	var m ServerMeta
	if m.HasAny() || m.HasDNS() || m.HasURI() || m.HasCert() {
		t.Fatal("zero meta must have nothing")
	}
	m.Hostname = "x.y.org"
	if !m.HasDNS() || !m.HasAny() {
		t.Fatal("DNS predicate wrong")
	}
	m = ServerMeta{CertEv: []Evidence{{Domain: "a.b", Authority: "a.b"}}}
	if !m.HasCert() || !m.HasAny() || m.HasDNS() {
		t.Fatal("cert predicate wrong")
	}
}

func TestHTTPSServersCarryCertEvidence(t *testing.T) {
	_, wk := analyzedWeek(t)
	found := false
	for _, m := range wk.Metas {
		srv := wk.Servers.Servers[m.IP]
		if srv.HTTPS {
			if !m.HasCert() {
				t.Fatalf("HTTPS server %v lacks cert evidence", m.IP)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no HTTPS servers in week")
	}
}
