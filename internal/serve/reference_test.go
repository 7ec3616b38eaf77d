package serve

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ixplens/internal/analysis"
	"ixplens/internal/capture"
	"ixplens/internal/core/churn"
	"ixplens/internal/core/visibility"
	"ixplens/internal/core/webserver"
	"ixplens/internal/entity"
	"ixplens/internal/geo"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/routing"
	"ixplens/internal/snapshot"
	"ixplens/internal/vfs"
)

// The world-resolved reference: the /ases, /visibility and /churn
// renderings as a server holding the rebuilt world computes them, every
// IP resolved through the world's entity table, the visibility product
// replayed into a visibility.Aggregator, and the churn observation built
// by pipeline.Env.Observation over the full result. The served bodies,
// resolved through each snapshot's attributes section instead, must
// equal these byte for byte.

// worldASes is the AS ranking with origins resolved through tab.
func worldASes(tab *entity.Table, wk *snapshot.Opened) []ASEntry {
	type agg struct {
		servers int
		bytes   uint64
	}
	byAS := make(map[uint32]*agg)
	for _, srv := range wk.Servers() {
		_, attrs := tab.ResolveAttrs(srv.IP)
		if attrs.ASN == 0 {
			continue
		}
		a := byAS[attrs.ASN]
		if a == nil {
			a = &agg{}
			byAS[attrs.ASN] = a
		}
		a.servers++
		a.bytes += srv.Bytes
	}
	out := make([]ASEntry, 0, len(byAS))
	for asn, a := range byAS {
		out = append(out, ASEntry{ASN: asn, Servers: a.servers, Bytes: a.bytes})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// worldVisibility is the visibility summary over every country, the
// product replayed into an aggregator over tab.
func worldVisibility(tb testing.TB, tab *entity.Table, wk *snapshot.Opened) VisibilitySummary {
	tb.Helper()
	vp, err := wk.Visibility()
	if err != nil || vp == nil {
		tb.Fatalf("week %d: visibility product %v, %v", wk.Header().Week, vp, err)
	}
	agg := vp.Aggregator(tab)
	sum := agg.Summarize(nil)
	byIPs, byBytes := agg.TopCountries(math.MaxInt, nil)
	conv := func(shares []visibility.Share) []CountryShare {
		out := make([]CountryShare, len(shares))
		for i, sh := range shares {
			out[i] = CountryShare{Country: sh.Key, IPs: sh.Count, Bytes: sh.Bytes}
		}
		return out
	}
	return VisibilitySummary{
		Week:        wk.Header().Week,
		ObservedIPs: sum.IPs,
		ASes:        sum.ASes,
		Prefixes:    sum.Prefixes,
		Countries:   sum.Countries,
		TotalBytes:  sum.Bytes,
		ByIPs:       conv(byIPs),
		ByBytes:     conv(byBytes),
	}
}

// worldChurn is the churn series over each week's servers resolved
// through env's world.
func worldChurn(tb testing.TB, env *pipeline.Env, snaps []*snapshot.Opened) []ChurnWeek {
	tb.Helper()
	tracker := churn.NewTracker()
	for _, snap := range snaps {
		if err := tracker.Add(env.Observation(snap.Result())); err != nil {
			tb.Fatal(err)
		}
	}
	computed := tracker.Compute()
	out := make([]ChurnWeek, len(computed))
	for i := range computed {
		wc := &computed[i]
		out[i] = ChurnWeek{
			Week: wc.Week, IPs: wc.IPs, Bytes: wc.Bytes, ASes: wc.ASes,
			TotalASes: wc.TotalASes, TotalPrefixes: wc.TotalPrefixes, UnresolvedIPs: wc.UnresolvedIPs,
			HTTPSIPs: wc.HTTPSIPs, HTTPSBytes: wc.HTTPSBytes, TotalBytes: wc.TotalBytes,
			EstLoss: wc.EstLoss, Gap: wc.Gap, ObservedWeeks: wc.ObservedWeeks, Streak: wc.Streak,
		}
	}
	return out
}

// studyCampaign mines the 17-week study and returns its directory, a
// world rebuilt from its manifest (not the one that generated it), and
// every week's snapshot as read back from disk.
func studyCampaign(t *testing.T) (string, *pipeline.Env, []*snapshot.Opened) {
	t.Helper()
	const weeks = 17
	if netmodel.Tiny().Weeks != weeks {
		t.Fatalf("study has %d weeks, want %d", netmodel.Tiny().Weeks, weeks)
	}
	dir, _, _ := minedCampaign(t, weeks, 2000)
	man, err := capture.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	env, err := man.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]*snapshot.Opened, len(man.Weeks))
	for i, wk := range man.Weeks {
		snap, err := snapshot.LoadFileFS(vfs.Default, filepath.Join(dir, snapshot.FileName(wk)))
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = mustOpen(snap)
	}
	return dir, env, snaps
}

// TestGoldenAttributesMatchWorld: over the 17-week study, each snapshot's
// attributes section covers exactly its servers and visibility IPs, and
// holds for every one of them what a rebuilt world's entity table
// resolves: origin AS, matched prefix and country.
func TestGoldenAttributesMatchWorld(t *testing.T) {
	_, env, snaps := studyCampaign(t)
	tab := env.EntityTable()
	for _, snap := range snaps {
		wk := snap.Header().Week
		attrs, err := snap.Attributes()
		if err != nil || attrs == nil {
			t.Fatalf("week %d: attributes %v, %v", wk, attrs, err)
		}
		vp, err := snap.Visibility()
		if err != nil {
			t.Fatal(err)
		}
		if attrs.Len() != len(vp.PerIP) {
			t.Fatalf("week %d: attributes cover %d IPs, the visibility product %d", wk, attrs.Len(), len(vp.PerIP))
		}
		for i := range vp.PerIP {
			if attrs.IP(i) != vp.PerIP[i].IP {
				t.Fatalf("week %d: attribute IP %d is %v, visibility IP %v", wk, i, attrs.IP(i), vp.PerIP[i].IP)
			}
			_, want := tab.ResolveAttrs(attrs.IP(i))
			got := attrs.At(i)
			if got.ASN != want.ASN || got.Prefix != want.Prefix || got.Country != tab.Countries.Value(want.CountryID) {
				t.Fatalf("week %d, %v: section %+v, world %+v (%s)", wk, attrs.IP(i), got, want, tab.Countries.Value(want.CountryID))
			}
		}
		for _, srv := range snap.Servers() {
			if _, ok := attrs.Find(srv.IP); !ok {
				t.Fatalf("week %d: server %v has no attributes", wk, srv.IP)
			}
		}
	}
}

// TestGoldenWorldResolvedViews: over the 17-week study, the served /ases
// and /visibility bodies at k = 1, 10 and 1000, and the /churn series,
// equal the world-resolved reference byte for byte.
func TestGoldenWorldResolvedViews(t *testing.T) {
	dir, env, snaps := studyCampaign(t)
	s, _ := openServer(t, dir, Config{})
	check := func(path string, want []byte) {
		t.Helper()
		code, got := serveGet(s, path)
		if code != 200 || !bytes.Equal(got, want) {
			t.Fatalf("%s: HTTP %d, diverged from the world-resolved reference:\nwant %s\ngot  %s", path, code, want, got)
		}
	}
	for _, snap := range snaps {
		wk := snap.Header().Week
		ases, vis := worldASes(env.EntityTable(), snap), worldVisibility(t, env.EntityTable(), snap)
		for _, k := range []int{1, 10, 1000} {
			check(endpointPath("ases", wk, k), wantJSON(t, topK(ases, k)))
			check(endpointPath("visibility", wk, k), wantJSON(t, vis.top(k)))
		}
	}
	check("/churn", wantJSON(t, worldChurn(t, env, snaps)))
}

// TestViewsMatchWorldOnEdgeAttributes holds /ases and /visibility to the
// world-resolved reference on IPs the study's worlds do not produce:
// unrouted ones, with and without a country, and a routed one without.
func TestViewsMatchWorldOnEdgeAttributes(t *testing.T) {
	rib := routing.NewTable()
	rib.Insert(routing.MakePrefix(packet.MakeIPv4(10, 0, 0, 0), 8), 64500)
	rib.Insert(routing.MakePrefix(packet.MakeIPv4(10, 1, 0, 0), 16), 64501)
	gdb, err := geo.Build([]geo.Range{
		{First: packet.MakeIPv4(10, 0, 0, 0), Last: packet.MakeIPv4(10, 0, 255, 255), Country: "DE"},
		{First: packet.MakeIPv4(10, 1, 0, 0), Last: packet.MakeIPv4(10, 1, 255, 255), Country: "JP"},
		{First: packet.MakeIPv4(192, 168, 0, 0), Last: packet.MakeIPv4(192, 168, 255, 255), Country: "US"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := entity.NewTable(rib, gdb)
	per := []visibility.IPTraffic{
		{IP: packet.MakeIPv4(10, 0, 0, 1), Bytes: 700},
		{IP: packet.MakeIPv4(10, 0, 0, 2), Bytes: 50},
		{IP: packet.MakeIPv4(10, 1, 0, 3), Bytes: 700},
		{IP: packet.MakeIPv4(10, 2, 0, 4), Bytes: 900},
		{IP: packet.MakeIPv4(192, 168, 7, 7), Bytes: 5000},
		{IP: packet.MakeIPv4(203, 0, 113, 1), Bytes: 9000},
	}
	res := &webserver.Result{Week: 45, Servers: map[packet.IPv4Addr]*webserver.Server{}}
	ips := make([]packet.IPv4Addr, len(per))
	for i, e := range per {
		ips[i] = e.IP
		res.Servers[e.IP] = &webserver.Server{IP: e.IP, Bytes: e.Bytes, Member: -1}
	}
	section := func(p analysis.Product) []byte {
		b, err := p.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	buf, err := snapshot.AppendEncode(nil, &snapshot.Snapshot{Result: res, Extra: []snapshot.Section{
		{Name: analysis.NameAttributes, Version: analysis.AttributesVersion, Payload: section(analysis.AttributesOf(tab, ips))},
		{Name: analysis.NameVisibility, Version: 1, Payload: section(&analysis.VisibilityProduct{PerIP: per})},
	}})
	if err != nil {
		t.Fatal(err)
	}
	wk, err := snapshot.Open(buf)
	if err != nil {
		t.Fatal(err)
	}
	ases, err := rankASes(wk)
	if err != nil || !reflect.DeepEqual(ases, worldASes(tab, wk)) {
		t.Fatalf("AS ranking %+v (%v), world %+v", ases, err, worldASes(tab, wk))
	}
	vis, err := rankVisibility(wk)
	if want := worldVisibility(t, tab, wk); err != nil || !reflect.DeepEqual(vis, want) {
		t.Fatalf("visibility %+v (%v), world %+v", vis, err, want)
	}
}
