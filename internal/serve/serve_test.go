package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ixplens/internal/analysis"
	"ixplens/internal/capture"
	"ixplens/internal/core/webserver"
	"ixplens/internal/faultline"
	"ixplens/internal/netmodel"
	"ixplens/internal/obs"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/snapshot"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

// fakeSnap builds a minimal distinct opened week for cache unit tests.
func fakeSnap(week int) *snapshot.Opened {
	snap := &snapshot.Snapshot{Result: &webserver.Result{
		Week:    week,
		Servers: map[packet.IPv4Addr]*webserver.Server{},
	}}
	return snap.Opened()
}

func TestCacheSingleFlight(t *testing.T) {
	var loads atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	load := func(ctx context.Context, wk int) (*snapshot.Opened, error) {
		loads.Add(1)
		close(started)
		<-release
		return fakeSnap(wk), nil
	}
	c := NewCache(4, load, NewMetrics(nil))
	defer c.Close()

	const waiters = 8
	var wg sync.WaitGroup
	snaps := make([]*weekView, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, err := c.Get(context.Background(), 45)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			snaps[i] = snap
		}(i)
	}
	<-started
	// All waiters are either attached to the single flight or about to
	// attach; releasing the load must complete every one of them.
	close(release)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("%d loads for %d concurrent identical requests, want exactly 1", n, waiters)
	}
	for i, snap := range snaps {
		if snap != snaps[0] {
			t.Fatalf("waiter %d got a different snapshot instance", i)
		}
	}
	// A later request hits the cache, not the loader.
	if _, err := c.Get(context.Background(), 45); err != nil {
		t.Fatal(err)
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("cache hit triggered load (%d total)", n)
	}
}

func TestCacheAbandonedLoadIsCancelled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	loadDone := make(chan error, 1)
	load := func(ctx context.Context, wk int) (*snapshot.Opened, error) {
		// Simulate an analysis that honors cancellation, as
		// capture.AnalyzeWeekSnapshot does (within one datagram batch).
		<-ctx.Done()
		loadDone <- ctx.Err()
		return nil, ctx.Err()
	}
	c := NewCache(4, load, NewMetrics(nil))
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, 45)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the flight start
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("abandoned Get returned %v, want context.Canceled", err)
	}
	// The last waiter leaving must cancel the load itself.
	select {
	case err := <-loadDone:
		if err != context.Canceled {
			t.Fatalf("load finished with %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned load was never cancelled")
	}
	// No goroutines left behind.
	waitGoroutines(t, baseline)
	// The failed load is not cached; a retry starts fresh.
	if c.Len() != 0 {
		t.Fatalf("cancelled load was cached (%d entries)", c.Len())
	}
}

func TestCacheWaiterSurvivesOtherWaiterCancelling(t *testing.T) {
	release := make(chan struct{})
	load := func(ctx context.Context, wk int) (*snapshot.Opened, error) {
		select {
		case <-release:
			return fakeSnap(wk), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := NewCache(4, load, NewMetrics(nil))
	defer c.Close()

	ctx1, cancel1 := context.WithCancel(context.Background())
	err1 := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx1, 45)
		err1 <- err
	}()
	ok2 := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), 45)
		ok2 <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel1() // first waiter leaves; the second must keep the flight alive
	if err := <-err1; err != context.Canceled {
		t.Fatalf("cancelled waiter got %v", err)
	}
	close(release)
	if err := <-ok2; err != nil {
		t.Fatalf("surviving waiter got %v, want success", err)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	load := func(ctx context.Context, wk int) (*snapshot.Opened, error) {
		return fakeSnap(wk), nil
	}
	m := NewMetrics(obs.NewRegistry())
	c := NewCache(2, load, m)
	defer c.Close()
	for wk := 1; wk <= 3; wk++ {
		if _, err := c.Get(context.Background(), wk); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d weeks, capacity 2", c.Len())
	}
	if c.Has(1) {
		t.Fatal("least recently used week survived eviction")
	}
	if !c.Has(2) || !c.Has(3) {
		t.Fatal("recently used weeks were evicted")
	}
	if m.Evictions.Value() != 1 {
		t.Fatalf("evictions counter %d, want 1", m.Evictions.Value())
	}
}

func TestCacheCloseCancelsInflight(t *testing.T) {
	load := func(ctx context.Context, wk int) (*snapshot.Opened, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	c := NewCache(4, load, NewMetrics(nil))
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), 45)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		c.Close() // must cancel the load and wait for its goroutine
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not drain in-flight loads")
	}
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("in-flight Get after Close got %v", err)
	}
}

// waitGoroutines polls until the goroutine count returns to (or below)
// baseline, failing after a deadline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines did not return to baseline %d (now %d)", baseline, runtime.NumGoroutine())
}

// campaign writes a small campaign to a temp dir and returns its path.
func campaign(t testing.TB, weeks, samples int) string {
	t.Helper()
	cfg := netmodel.Tiny()
	cfg.Weeks = weeks
	env, err := pipeline.NewEnv(cfg, traffic.Options{SamplesPerWeek: samples, SamplingRate: 16384, SnapLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := capture.WriteCampaignOpts(context.Background(), env, dir, capture.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestServerEndpoints(t *testing.T) {
	dir := campaign(t, 3, 2000)
	store, err := OpenStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(store, Config{}, reg)
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := get("/healthz"); code != 200 || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body := get("/weeks")
	if code != 200 {
		t.Fatalf("weeks: %d %s", code, body)
	}
	var infos []WeekInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || infos[0].Week != store.Weeks()[0] {
		t.Fatalf("weeks inventory wrong: %+v", infos)
	}

	first := store.Weeks()[0]
	code, body = get(fmt.Sprintf("/week/%d", first))
	if code != 200 {
		t.Fatalf("week: %d %s", code, body)
	}
	var sum WeekSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Week != first || sum.Servers == 0 || sum.Samples == 0 {
		t.Fatalf("summary empty: %+v", sum)
	}

	if code, body = get(fmt.Sprintf("/week/%d/servers?k=5", first)); code != 200 {
		t.Fatalf("servers: %d %s", code, body)
	}
	var servers []ServerEntry
	if err := json.Unmarshal(body, &servers); err != nil {
		t.Fatal(err)
	}
	if len(servers) == 0 || len(servers) > 5 {
		t.Fatalf("top servers wrong: %d entries", len(servers))
	}

	if code, body = get(fmt.Sprintf("/week/%d/ases?k=5", first)); code != 200 {
		t.Fatalf("ases: %d %s", code, body)
	}
	var ases []ASEntry
	if err := json.Unmarshal(body, &ases); err != nil {
		t.Fatal(err)
	}
	if len(ases) == 0 {
		t.Fatal("no top ASes")
	}

	if code, body = get(fmt.Sprintf("/week/%d/visibility?k=5", first)); code != 200 {
		t.Fatalf("visibility: %d %s", code, body)
	}
	var vis VisibilitySummary
	if err := json.Unmarshal(body, &vis); err != nil {
		t.Fatal(err)
	}
	if vis.Week != first || vis.ObservedIPs == 0 || vis.TotalBytes == 0 {
		t.Fatalf("visibility summary empty: %+v", vis)
	}
	if len(vis.ByIPs) == 0 || len(vis.ByIPs) > 5 || len(vis.ByBytes) > 5 {
		t.Fatalf("visibility rankings wrong: %d by IPs, %d by bytes", len(vis.ByIPs), len(vis.ByBytes))
	}

	if code, body = get(fmt.Sprintf("/week/%d/links?k=5", first)); code != 200 {
		t.Fatalf("links: %d %s", code, body)
	}
	var links []LinkEntry
	if err := json.Unmarshal(body, &links); err != nil {
		t.Fatal(err)
	}
	if len(links) == 0 || len(links) > 5 {
		t.Fatalf("top links wrong: %d entries", len(links))
	}
	for i := 1; i < len(links); i++ {
		if links[i].Bytes > links[i-1].Bytes {
			t.Fatalf("links not bytes-descending at %d", i)
		}
	}

	if code, body = get("/churn"); code != 200 {
		t.Fatalf("churn: %d %s", code, body)
	}
	var series []ChurnWeek
	if err := json.Unmarshal(body, &series); err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("churn series has %d weeks", len(series))
	}

	if code, _ := get("/week/99"); code != 404 {
		t.Fatalf("unknown week: %d, want 404", code)
	}
	if code, _ := get("/week/notanumber"); code != 400 {
		t.Fatalf("bad week: %d, want 400", code)
	}
	if code, _ := get("/metrics"); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if reg.Counters()["serve_cache_misses_total"] == 0 {
		t.Fatal("cache miss counter never moved")
	}
}

// TestServerSingleFlightColdCache is the concurrency acceptance test:
// 8 concurrent clients against one cold week must trigger exactly one
// analysis, and every client gets byte-identical bytes.
func TestServerSingleFlightColdCache(t *testing.T) {
	dir := campaign(t, 3, 2000)
	store, err := OpenStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(store, Config{}, reg)
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := store.Weeks()[0]
	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/week/%d", ts.URL, first))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d saw different bytes than client 0", i)
		}
	}
	counters := reg.Counters()
	if n := counters["serve_analyses_total"]; n != 1 {
		t.Fatalf("%d analyses for one cold week under concurrent load, want exactly 1", n)
	}
	if counters["serve_flight_joins_total"] == 0 && counters["serve_cache_hits_total"] == 0 {
		t.Fatal("no request joined the flight or hit the cache")
	}
}

// TestServerShedsPastInFlightLimit fills the in-flight semaphore and
// verifies excess requests get an immediate 503 with the shed counter
// incremented, instead of queueing.
func TestServerShedsPastInFlightLimit(t *testing.T) {
	dir := campaign(t, 3, 2000)
	store, err := OpenStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(store, Config{MaxInFlight: 2}, reg)
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Occupy the whole in-flight budget.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	resp, err := http.Get(ts.URL + "/weeks")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503", resp.StatusCode)
	}
	if n := reg.Counters()["serve_shed_total"]; n != 1 {
		t.Fatalf("shed counter %d, want 1", n)
	}
	// Liveness is exempt from shedding.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz shed with %d", resp.StatusCode)
	}
	<-s.sem
	<-s.sem
	// Capacity released: requests flow again.
	resp, err = http.Get(ts.URL + "/weeks")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("drained server answered %d", resp.StatusCode)
	}
}

// TestServerCancelledAnalysisLeavesNothingBehind cancels a request
// mid-analysis and verifies the analysis goroutine unwinds and a
// retry succeeds.
func TestServerCancelledAnalysisLeavesNothingBehind(t *testing.T) {
	dir := campaign(t, 3, 2000)
	store, err := OpenStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(store, Config{}, reg)
	defer s.Close()

	baseline := runtime.NumGoroutine()
	first := store.Weeks()[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the wait aborts immediately
	if _, err := s.cache.Get(ctx, first); err != context.Canceled {
		t.Fatalf("cancelled request got %v", err)
	}
	waitGoroutines(t, baseline)
	if n := reg.Counters()["serve_analyses_total"]; n != 0 {
		t.Fatalf("cancelled request completed %d analyses", n)
	}
	// The week is not poisoned: a live retry succeeds.
	view, err := s.cache.Get(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	if view.snap.Header().Week != first {
		t.Fatalf("retry returned week %d", view.snap.Header().Week)
	}
}

// TestGoldenServedAllWeeks is the serving acceptance criterion: for
// every one of the 17 study weeks, the directly analyzed result, its
// snapshot round trip, and the served /week/{n} response agree byte
// for byte — aggregates, EstLoss and all.
func TestGoldenServedAllWeeks(t *testing.T) {
	cfg := netmodel.Tiny()
	if cfg.Weeks != 17 {
		t.Fatalf("study has %d weeks, want 17", cfg.Weeks)
	}
	opts := traffic.Options{SamplesPerWeek: 2000, SamplingRate: 16384, SnapLen: 128}
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := capture.WriteCampaignOpts(context.Background(), env, dir, capture.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	man, err := capture.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Direct path: analyze every week from the capture files, render
	// the summary bytes, and persist a snapshot for each.
	direct := make(map[int]*snapshot.Snapshot, len(man.Weeks))
	wantBody := make(map[int][]byte, len(man.Weeks))
	for i, wk := range man.Weeks {
		snap, err := capture.AnalyzeWeekSnapshot(context.Background(), env, filepath.Join(dir, man.Files[i]), wk)
		if err != nil {
			t.Fatalf("week %d: %v", wk, err)
		}
		snap.SourceDigest = man.Digests[i]
		direct[wk] = snap
		buf, err := json.Marshal(Summarize(snap.Opened()))
		if err != nil {
			t.Fatal(err)
		}
		wantBody[wk] = append(buf, '\n')
		if _, err := snapshot.SaveFileFS(vfs.Default, filepath.Join(dir, snapshot.FileName(wk)), snap); err != nil {
			t.Fatalf("week %d: %v", wk, err)
		}
	}

	// Serving path: a fresh store over the same directory must reload
	// every week from its snapshot and serve identical bytes.
	store, err := OpenStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(store, Config{}, reg)
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, wk := range man.Weeks {
		resp, err := http.Get(fmt.Sprintf("%s/week/%d", ts.URL, wk))
		if err != nil {
			t.Fatalf("week %d: %v", wk, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("week %d: status %d: %s", wk, resp.StatusCode, body)
		}
		if !bytes.Equal(body, wantBody[wk]) {
			t.Fatalf("week %d: served response diverged from direct analysis:\nwant %s\ngot  %s",
				wk, wantBody[wk], body)
		}
		// The snapshot reload itself must reproduce the direct result
		// exactly, EstLoss included.
		view, err := s.cache.Get(context.Background(), wk)
		if err != nil {
			t.Fatal(err)
		}
		snap := view.snap
		if !reflect.DeepEqual(snap.Result(), direct[wk].Result) {
			t.Fatalf("week %d: snapshot-reloaded result diverged from direct analysis", wk)
		}
		if snap.Counts != direct[wk].Counts {
			t.Fatalf("week %d: snapshot-reloaded counts diverged", wk)
		}
	}
	counters := reg.Counters()
	if n := counters["serve_analyses_total"]; n != 0 {
		t.Fatalf("served weeks re-ran %d analyses despite snapshots", n)
	}
	if n := counters["serve_snapshot_loads_total"]; n != uint64(len(man.Weeks)) {
		t.Fatalf("snapshot loads %d, want %d", n, len(man.Weeks))
	}

	// The longitudinal series served over HTTP must match the series
	// computed from the direct results.
	snaps := make([]*snapshot.Opened, len(man.Weeks))
	for i, wk := range man.Weeks {
		snaps[i] = direct[wk].Opened()
	}
	series, err := ChurnSeries(env, man.Weeks, snaps)
	if err != nil {
		t.Fatal(err)
	}
	wantChurn, err := json.Marshal(series)
	if err != nil {
		t.Fatal(err)
	}
	wantChurn = append(wantChurn, '\n')
	resp, err := http.Get(ts.URL + "/churn")
	if err != nil {
		t.Fatal(err)
	}
	gotChurn, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("churn: status %d", resp.StatusCode)
	}
	if !bytes.Equal(gotChurn, wantChurn) {
		t.Fatal("served churn series diverged from directly computed series")
	}
}

// TestStoreWriteSnapshots verifies analyze-then-persist: the first load
// analyzes and writes a snapshot, a fresh store then loads it without
// re-analyzing, and a stale snapshot (digest mismatch) is re-analyzed.
func TestStoreWriteSnapshots(t *testing.T) {
	dir := campaign(t, 3, 2000)
	store, err := OpenStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(obs.NewRegistry())
	store.SetMetrics(m)
	first := store.Weeks()[0]
	snap1, err := store.Load(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	if m.Analyses.Value() != 1 || m.SnapshotWrites.Value() != 1 {
		t.Fatalf("first load: analyses=%d writes=%d", m.Analyses.Value(), m.SnapshotWrites.Value())
	}

	store2, err := OpenStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMetrics(obs.NewRegistry())
	store2.SetMetrics(m2)
	snap2, err := store2.Load(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Analyses.Value() != 0 || m2.SnapshotLoads.Value() != 1 {
		t.Fatalf("second load: analyses=%d snapLoads=%d", m2.Analyses.Value(), m2.SnapshotLoads.Value())
	}
	if !reflect.DeepEqual(snap1.Result(), snap2.Result()) || snap1.Counts != snap2.Counts {
		t.Fatal("snapshot-loaded week diverged from analyzed week")
	}

	// Poison the snapshot's digest binding: the store must detect the
	// stale snapshot and re-analyze.
	stale := &snapshot.Snapshot{Result: snap1.Result(), Counts: snap1.Counts, SourceDigest: "deadbeef"}
	if _, err := snapshot.SaveFileFS(vfs.Default, filepath.Join(dir, snapshot.FileName(first)), stale); err != nil {
		t.Fatal(err)
	}
	store3, err := OpenStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	m3 := NewMetrics(obs.NewRegistry())
	store3.SetMetrics(m3)
	if _, err := store3.Load(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	if m3.Analyses.Value() != 1 {
		t.Fatalf("stale snapshot was served (analyses=%d)", m3.Analyses.Value())
	}
}

// TestStoreDoesNotPersistDamagedAnalysis: the analyze-on-miss fallback
// over a capture whose bytes no longer have the manifest's digest still
// answers — the quarantined block is priced into EstLoss — but must not
// persist a snapshot bound to the manifest digest, or the damaged week
// would load as fresh ever after. An intact week persists as before.
func TestStoreDoesNotPersistDamagedAnalysis(t *testing.T) {
	// Enough samples for several blocks, so the flipped one has intact
	// neighbours for the sequence tracker to see the gap between.
	dir := campaign(t, 2, 8000)
	store, err := OpenStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(obs.NewRegistry())
	store.SetMetrics(m)
	damaged, intact := store.Weeks()[0], store.Weeks()[1]
	path := filepath.Join(dir, capture.WeekFile(damaged))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faultline.FlipFileBitFS(vfs.Default, path, uint64(fi.Size()/2)); err != nil {
		t.Fatal(err)
	}

	snap, err := store.Load(context.Background(), damaged)
	if err != nil {
		t.Fatalf("damaged capture must degrade, not fail: %v", err)
	}
	if snap.Header().EstLoss <= 0 {
		t.Fatal("quarantined block did not surface as estimated loss")
	}
	if snap.SourceDigest == store.Manifest().Digests[0] {
		t.Fatal("damaged analysis carries the manifest's digest")
	}
	if m.DigestMismatch.Value() != 1 || m.SnapshotWrites.Value() != 0 {
		t.Fatalf("damaged week: mismatches=%d writes=%d, want 1/0", m.DigestMismatch.Value(), m.SnapshotWrites.Value())
	}
	if _, err := os.Stat(filepath.Join(dir, snapshot.FileName(damaged))); !os.IsNotExist(err) {
		t.Fatalf("snapshot persisted for a damaged capture (stat err %v)", err)
	}
	// Nothing was persisted, so the next load analyzes again rather than
	// finding a "fresh" snapshot.
	if _, err := store.Load(context.Background(), damaged); err != nil {
		t.Fatal(err)
	}
	if m.Analyses.Value() != 2 || m.SnapshotLoads.Value() != 0 {
		t.Fatalf("reload: analyses=%d snapLoads=%d, want 2/0", m.Analyses.Value(), m.SnapshotLoads.Value())
	}

	if _, err := store.Load(context.Background(), intact); err != nil {
		t.Fatal(err)
	}
	if m.DigestMismatch.Value() != 2 || m.SnapshotWrites.Value() != 1 {
		t.Fatalf("intact week: mismatches=%d writes=%d, want 2/1", m.DigestMismatch.Value(), m.SnapshotWrites.Value())
	}
	persisted, err := snapshot.LoadFileFS(vfs.Default, filepath.Join(dir, snapshot.FileName(intact)))
	if err != nil {
		t.Fatal(err)
	}
	if persisted.SourceDigest != store.Manifest().Digests[1] {
		t.Fatalf("persisted snapshot bound to %s, manifest records %s", persisted.SourceDigest, store.Manifest().Digests[1])
	}
}

// TestProductEndpointsServedFromSnapshot pins the multi-section serving
// criterion: /visibility and /links answer from a persisted snapshot's
// products without a single re-analysis, byte-identical to views built
// from the direct analysis.
func TestProductEndpointsServedFromSnapshot(t *testing.T) {
	dir := campaign(t, 3, 2000)
	man, err := capture.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	env, err := man.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	first := man.Weeks[0]
	snap, err := capture.AnalyzeWeekSnapshot(context.Background(), env, filepath.Join(dir, man.Files[0]), first)
	if err != nil {
		t.Fatal(err)
	}
	snap.SourceDigest = man.Digests[0]
	if _, err := snapshot.SaveFileFS(vfs.Default, filepath.Join(dir, snapshot.FileName(first)), snap); err != nil {
		t.Fatal(err)
	}

	store, err := OpenStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(store, Config{}, reg)
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	wantVis, err := VisibilityView(store.Env(), snap.Opened(), 7)
	if err != nil {
		t.Fatal(err)
	}
	wantVisBody, _ := json.Marshal(wantVis)
	wantLinks, err := TopLinks(snap.Opened(), 7)
	if err != nil {
		t.Fatal(err)
	}
	wantLinksBody, _ := json.Marshal(wantLinks)

	for path, want := range map[string][]byte{
		fmt.Sprintf("/week/%d/visibility?k=7", first): append(wantVisBody, '\n'),
		fmt.Sprintf("/week/%d/links?k=7", first):      append(wantLinksBody, '\n'),
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: served bytes diverged from direct view:\nwant %s\ngot  %s", path, want, body)
		}
	}
	if n := reg.Counters()["serve_analyses_total"]; n != 0 {
		t.Fatalf("product endpoints triggered %d analyses despite a complete snapshot", n)
	}
	if n := reg.Counters()["serve_snapshot_loads_total"]; n == 0 {
		t.Fatal("snapshot never loaded")
	}
}

// TestProductEndpointsWithoutAnalyzer404 narrows the serving registry to
// the webserver analyzer alone: the product endpoints must answer 404
// (ErrNoProduct), not crash or re-analyze into existence.
func TestProductEndpointsWithoutAnalyzer404(t *testing.T) {
	dir := campaign(t, 3, 2000)
	store, err := OpenStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	narrowed, err := analysis.Select("webserver")
	if err != nil {
		t.Fatal(err)
	}
	store.Env().Analyzers = narrowed
	s := New(store, Config{}, obs.NewRegistry())
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := store.Weeks()[0]
	for _, path := range []string{
		fmt.Sprintf("/week/%d/visibility", first),
		fmt.Sprintf("/week/%d/links", first),
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("%s: status %d, want 404: %s", path, resp.StatusCode, body)
		}
	}
	// The summary endpoint still works: the webserver product exists.
	resp, err := http.Get(fmt.Sprintf("%s/week/%d", ts.URL, first))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("summary under narrowed registry: %d", resp.StatusCode)
	}
}
