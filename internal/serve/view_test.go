package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ixplens/internal/analysis"
	"ixplens/internal/capture"
	"ixplens/internal/netmodel"
	"ixplens/internal/obs"
	"ixplens/internal/pipeline"
	"ixplens/internal/snapshot"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

// minedCampaign writes a campaign, mines a snapshot of every week into
// it as ixpmine does — each week analyzed from its capture file, bound
// to the digest the analysis read — and returns its directory, the
// environment that generated and analyzed it, and the weeks themselves:
// loads of their own, shared with no server, for the exported pure
// renderers to work from.
func minedCampaign(tb testing.TB, weeks, samples int) (string, *pipeline.Env, map[int]*snapshot.Opened) {
	return mineCampaign(tb, weeks, samples, nil)
}

// mineCampaign is minedCampaign under an analyzer registry (nil keeps
// the environment's default).
func mineCampaign(tb testing.TB, weeks, samples int, reg *analysis.Registry) (string, *pipeline.Env, map[int]*snapshot.Opened) {
	tb.Helper()
	cfg := netmodel.Tiny()
	cfg.Weeks = weeks
	env, err := pipeline.NewEnv(cfg, traffic.Options{SamplesPerWeek: samples, SamplingRate: 16384, SnapLen: 128})
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	ctx := context.Background()
	if _, err := capture.WriteCampaignOpts(ctx, env, dir, capture.WriteOptions{}); err != nil {
		tb.Fatal(err)
	}
	man, err := capture.ReadManifest(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if reg != nil {
		env.Analyzers = reg
	}
	snaps := make(map[int]*snapshot.Opened, weeks)
	for i, wk := range man.Weeks {
		snap, err := capture.AnalyzeWeekSnapshot(ctx, env, filepath.Join(dir, man.Files[i]), wk)
		if err != nil {
			tb.Fatalf("week %d: %v", wk, err)
		}
		if _, err := snapshot.SaveFileFS(vfs.Default, filepath.Join(dir, snapshot.FileName(wk)), snap); err != nil {
			tb.Fatalf("week %d: %v", wk, err)
		}
		snaps[wk] = mustOpen(snap)
	}
	return dir, env, snaps
}

// openServer serves dir from its snapshots.
func openServer(tb testing.TB, dir string, cfg Config) (*Server, *obs.Registry) {
	tb.Helper()
	store, err := OpenStore(dir, false)
	if err != nil {
		tb.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(store, cfg, reg)
	tb.Cleanup(s.Close)
	return s, reg
}

// serveGet answers one path in-process.
func serveGet(s *Server, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

// endpointPath is the request path of one of the endpoints names for a
// week; k <= 0 leaves ?k= out (the week-less endpoints ignore both).
func endpointPath(endpoint string, wk, k int) string {
	switch endpoint {
	case "churn", "weeks":
		return "/" + endpoint
	case "week":
		return fmt.Sprintf("/week/%d", wk)
	}
	if k <= 0 {
		return fmt.Sprintf("/week/%d/%s", wk, endpoint)
	}
	return fmt.Sprintf("/week/%d/%s?k=%d", wk, endpoint, k)
}

// wantJSON is the serving contract's body for v, rendered here rather
// than through the package's own helper.
func wantJSON(tb testing.TB, v interface{}) []byte {
	tb.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return append(buf, '\n')
}

// pureBodies renders every per-week endpoint of one snapshot at one k
// through the pure renderers the handlers memoize, cut to their first k
// as the handlers cut them, keyed by request path.
func pureBodies(tb testing.TB, snap *snapshot.Opened, k int) map[string][]byte {
	tb.Helper()
	vis, err := rankVisibility(snap)
	if err != nil {
		tb.Fatal(err)
	}
	lp, err := linksOf(snap)
	if err != nil {
		tb.Fatal(err)
	}
	ases, err := rankASes(snap)
	if err != nil {
		tb.Fatal(err)
	}
	wk := snap.Header().Week
	return map[string][]byte{
		endpointPath("week", wk, k):       wantJSON(tb, Summarize(snap)),
		endpointPath("servers", wk, k):    wantJSON(tb, TopServers(snap, k)),
		endpointPath("ases", wk, k):       wantJSON(tb, topK(ases, k)),
		endpointPath("visibility", wk, k): wantJSON(tb, vis.top(k)),
		endpointPath("links", wk, k):      wantJSON(tb, renderLinks(topK(lp.RankedMemberLinks(), k))),
	}
}

func pureChurn(tb testing.TB, weeks []int, snaps map[int]*snapshot.Opened) []byte {
	tb.Helper()
	ordered := make([]*snapshot.Opened, len(weeks))
	for i, wk := range weeks {
		ordered[i] = snaps[wk] // nil for a gap week
	}
	series, err := ChurnSeries(weeks, ordered)
	if err != nil {
		tb.Fatal(err)
	}
	return wantJSON(tb, series)
}

// viewsPerWeek is how many derived results a weekView memoizes.
const viewsPerWeek = 5

// TestGoldenMemoizedViews: for all 17 weeks and k in {1, 10, 1000},
// every memoized endpoint serves exactly the bytes of its exported pure
// renderer, on the request that builds the view and on the one that
// reuses it — and each view is built once, the churn series once.
func TestGoldenMemoizedViews(t *testing.T) {
	const weeks = 17
	if netmodel.Tiny().Weeks != weeks {
		t.Fatalf("study has %d weeks, want %d", netmodel.Tiny().Weeks, weeks)
	}
	dir, _, snaps := minedCampaign(t, weeks, 2000)
	s, reg := openServer(t, dir, Config{})

	check := func(path string, want []byte) {
		t.Helper()
		for _, pass := range []string{"first", "second"} {
			code, got := serveGet(s, path)
			if code != 200 {
				t.Fatalf("%s (%s request): HTTP %d: %s", path, pass, code, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s (%s request) diverged from the pure renderer:\nwant %s\ngot  %s", path, pass, want, got)
			}
		}
	}
	for _, wk := range s.store.Weeks() {
		for _, k := range []int{1, 10, 1000} {
			for path, want := range pureBodies(t, snaps[wk], k) {
				check(path, want)
			}
		}
	}
	check("/churn", pureChurn(t, s.store.Weeks(), snaps))

	counters := reg.Counters()
	if n := counters["serve_view_builds_total"]; n != weeks*viewsPerWeek {
		t.Fatalf("serve_view_builds_total = %d, want %d (one per week and view)", n, weeks*viewsPerWeek)
	}
	if n := counters["serve_churn_builds_total"]; n != 1 {
		t.Fatalf("serve_churn_builds_total = %d, want 1", n)
	}
}

// TestViewsBuiltOnceUnderConcurrency: many clients hit every endpoint
// of one cold week (and the series) at once, at different k so their
// answers are different prefixes of the same shared rankings. Every
// answer must match the pure renderer, each view must be built exactly
// once, and the rankings must come out as they went in. Run under -race
// this is also the proof that serving never writes to a shared view.
func TestViewsBuiltOnceUnderConcurrency(t *testing.T) {
	dir, _, snaps := minedCampaign(t, 3, 2000)
	s, reg := openServer(t, dir, Config{})
	weeks := s.store.Weeks()
	wk := weeks[1]

	ks := []int{1, 3, 10, 1000}
	want := map[string][]byte{"/churn": pureChurn(t, weeks, snaps)}
	for _, k := range ks {
		for path, body := range pureBodies(t, snaps[wk], k) {
			want[path] = body
		}
	}

	const clients = 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := ks[c%len(ks)]
			paths := []string{"/churn", "/weeks"}
			for path := range pureBodies(t, snaps[wk], k) {
				paths = append(paths, path)
			}
			for round := 0; round < 3; round++ {
				for _, path := range paths {
					code, got := serveGet(s, path)
					if code != 200 {
						t.Errorf("%s: HTTP %d: %s", path, code, got)
					} else if body, pinned := want[path]; pinned && !bytes.Equal(got, body) {
						t.Errorf("%s diverged from the pure renderer under concurrency", path)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	counters := reg.Counters()
	if n := counters["serve_view_builds_total"]; n != viewsPerWeek {
		t.Fatalf("serve_view_builds_total = %d, want %d: each view of the one week exactly once", n, viewsPerWeek)
	}
	if n := counters["serve_churn_builds_total"]; n != 1 {
		t.Fatalf("serve_churn_builds_total = %d, want 1", n)
	}
	if n := counters["serve_snapshot_loads_total"]; n != uint64(len(weeks)) {
		t.Fatalf("%d snapshot loads, want one per week (%d)", n, len(weeks))
	}

	// The shared rankings are still what a fresh ranking of the same
	// snapshot gives: no request reordered or overwrote them.
	v, err := s.cache.Get(context.Background(), wk)
	if err != nil {
		t.Fatal(err)
	}
	if rows := v.servers.rows; !reflect.DeepEqual(rows, TopServers(v.snap, len(rows))) {
		t.Error("shared server ranking was mutated")
	}
	if fresh, err := rankASes(v.snap); err != nil || !reflect.DeepEqual(v.ases.val, fresh) {
		t.Errorf("shared AS ranking was mutated (%v)", err)
	}
	lp, err := v.snap.Links()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.links.val, lp.RankedMemberLinks()) {
		t.Error("shared link ranking was mutated")
	}
	fresh, err := rankVisibility(v.snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.vis.val, fresh) {
		t.Error("shared visibility rankings were mutated")
	}
}

// TestTopKClipsCapacity: a prefix handed out of a shared ranking must
// not let an append reach the ranking's backing array.
func TestTopKClipsCapacity(t *testing.T) {
	ranked := []int{5, 4, 3, 2, 1}
	top := topK(ranked, 2)
	if len(top) != 2 || cap(top) != 2 {
		t.Fatalf("topK(_, 2): len %d cap %d, want 2 and 2", len(top), cap(top))
	}
	_ = append(top, 99)
	if ranked[2] != 3 {
		t.Fatalf("append to a prefix wrote into the shared ranking: %v", ranked)
	}
	if all := topK(ranked, 1000); len(all) != len(ranked) {
		t.Fatalf("topK past the end returned %d entries, want %d", len(all), len(ranked))
	}
}

// TestChurnMemoEvictionAndGaps: under a cache too small to hold the
// campaign, every /churn finds its weeks reloaded under new generations
// and recomputes — same bytes, nothing pinned past the cache's bound —
// while a cache that holds them all computes once. The quarantined
// week's gap row survives the memo either way.
func TestChurnMemoEvictionAndGaps(t *testing.T) {
	dir, _, snaps := minedCampaign(t, 5, 2000)
	open := func(cfg Config) (*Server, *obs.Registry, int) {
		store, err := OpenStore(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		bad := store.Weeks()[2]
		store.SetQuarantined([]int{bad})
		reg := obs.NewRegistry()
		s := New(store, cfg, reg)
		t.Cleanup(s.Close)
		return s, reg, bad
	}
	churn := func(s *Server) []byte {
		t.Helper()
		code, body := serveGet(s, "/churn")
		if code != 200 {
			t.Fatalf("/churn: HTTP %d: %s", code, body)
		}
		return bytes.Clone(body)
	}

	small, smallReg, bad := open(Config{CacheWeeks: 2})
	gapped := make(map[int]*snapshot.Opened, len(snaps))
	for wk, snap := range snaps {
		if wk != bad {
			gapped[wk] = snap
		}
	}
	want := pureChurn(t, small.store.Weeks(), gapped)
	if !bytes.Contains(want, []byte(`"gap":true`)) {
		t.Fatal("reference series has no gap row")
	}

	first := churn(small)
	if n := small.cache.Len(); n > 2 {
		t.Fatalf("%d weeks resident after /churn, want <= 2", n)
	}
	// Per-week traffic in between moves the LRU but not the answer.
	for _, wk := range small.store.Weeks() {
		if wk == bad {
			continue
		}
		if code, body := serveGet(small, fmt.Sprintf("/week/%d/servers?k=3", wk)); code != 200 {
			t.Fatalf("week %d: HTTP %d: %s", wk, code, body)
		}
		if n := small.cache.Len(); n > 2 {
			t.Fatalf("%d weeks resident, want <= 2", n)
		}
	}
	second := churn(small)
	if n := small.cache.Len(); n > 2 {
		t.Fatalf("%d weeks resident after the second /churn, want <= 2", n)
	}
	if !bytes.Equal(first, want) || !bytes.Equal(second, want) {
		t.Fatal("/churn under eviction diverged from the pure series")
	}
	if n := smallReg.Counters()["serve_churn_builds_total"]; n != 2 {
		t.Fatalf("serve_churn_builds_total = %d with a 2-week cache, want 2 (every week was reloaded)", n)
	}

	big, bigReg, _ := open(Config{})
	if a, b := churn(big), churn(big); !bytes.Equal(a, want) || !bytes.Equal(b, want) {
		t.Fatal("/churn with every week resident diverged from the pure series")
	}
	if n := bigReg.Counters()["serve_churn_builds_total"]; n != 1 {
		t.Fatalf("serve_churn_builds_total = %d with every week resident, want 1", n)
	}
}

// TestKParam: a malformed ?k= is a client error, not a silent default;
// the 1000 cap and the absent-k default still hold.
func TestKParam(t *testing.T) {
	dir, _, _ := minedCampaign(t, 3, 2000)
	s, reg := openServer(t, dir, Config{TopK: 4})
	wk := s.store.Weeks()[0]
	for _, endpoint := range []string{"servers", "ases", "visibility", "links"} {
		for _, k := range []string{"abc", "0", "-3", "1.5", "10x"} {
			path := fmt.Sprintf("/week/%d/%s?k=%s", wk, endpoint, k)
			code, body := serveGet(s, path)
			if code != http.StatusBadRequest || !bytes.Contains(body, []byte("bad k")) {
				t.Errorf("%s: HTTP %d %q, want 400 bad k", path, code, body)
			}
		}
		base := fmt.Sprintf("/week/%d/%s", wk, endpoint)
		same := func(a, b string) {
			t.Helper()
			ca, ba := serveGet(s, a)
			cb, bb := serveGet(s, b)
			if ca != 200 || cb != 200 || !bytes.Equal(ba, bb) {
				t.Errorf("%s (HTTP %d) and %s (HTTP %d) should serve the same bytes", a, ca, b, cb)
			}
		}
		same(base+"?k=5000", base+"?k=1000") // capped
		same(base, base+"?k=4")              // absent: Config.TopK
		same(base+"?k=", base+"?k=4")        // empty counts as absent
	}
	// A refused request never reached the cache.
	if n := reg.Counters()["serve_cache_misses_total"]; n != 1 {
		t.Fatalf("%d cache misses, want 1 (only the well-formed requests load the week)", n)
	}
	// The cap is a cap: with more than 1000 servers it would cut; here
	// it must at least not be the default.
	var four, all []ServerEntry
	_, body := serveGet(s, fmt.Sprintf("/week/%d/servers", wk))
	if err := json.Unmarshal(body, &four); err != nil {
		t.Fatal(err)
	}
	_, body = serveGet(s, fmt.Sprintf("/week/%d/servers?k=5000", wk))
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(four) != 4 || len(all) <= 4 || len(all) > 1000 {
		t.Fatalf("default k served %d rows, k=5000 served %d; want 4 and (4, 1000]", len(four), len(all))
	}
}

// TestEndpointHistograms: every query endpoint records into its own
// serve_request_ns{endpoint=...} histogram, and the aggregate still
// counts them all.
func TestEndpointHistograms(t *testing.T) {
	dir, _, _ := minedCampaign(t, 3, 2000)
	s, _ := openServer(t, dir, Config{})
	wk := s.store.Weeks()[0]
	for i, name := range endpoints {
		for n := 0; n <= i; n++ { // a different count per endpoint
			path := endpointPath(name, wk, 0)
			if code, body := serveGet(s, path); code != 200 {
				t.Fatalf("%s: HTTP %d: %s", path, code, body)
			}
		}
	}
	total := uint64(0)
	for i, name := range endpoints {
		if n := s.m.EndpointNanos[name].Count(); n != uint64(i+1) {
			t.Errorf("serve_request_ns{endpoint=%s} counted %d requests, want %d", name, n, i+1)
		}
		total += uint64(i + 1)
	}
	if n := s.m.ReqNanos.Count(); n != total {
		t.Errorf("aggregate serve_request_ns counted %d requests, want %d", n, total)
	}
	_, metrics := serveGet(s, "/metrics")
	listed := []string{"serve_view_builds_total", "serve_churn_builds_total"}
	for _, name := range endpoints {
		listed = append(listed, "serve_request_ns{endpoint="+name+"}")
	}
	for _, name := range listed {
		if !bytes.Contains(metrics, []byte(name)) {
			t.Errorf("/metrics does not list %s", name)
		}
	}
}
