package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
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

// mustOpen encodes snap and opens the bytes, verified as ixpserve
// verifies a snapshot file.
func mustOpen(snap *snapshot.Snapshot) *snapshot.Opened {
	buf, err := snapshot.AppendEncode(nil, snap)
	if err != nil {
		panic(err)
	}
	o, err := snapshot.Open(buf)
	if err != nil {
		panic(err)
	}
	return o
}

// ixpsnap1 encodes snap in the retired single-section container that
// builds before IXPSNAP2 wrote: "IXPSNAP1" rawLen:u32 crc:u32, then the
// source digest, the eleven cascade counts and the result.
func ixpsnap1(tb testing.TB, snap *snapshot.Snapshot) []byte {
	tb.Helper()
	c := &snap.Counts
	payload := analysis.AppendString(nil, snap.SourceDigest)
	for _, v := range []uint64{uint64(c.Total), uint64(c.Undecodable), uint64(c.NonIPv4), uint64(c.Local),
		uint64(c.NonTCPUDP), uint64(c.PeeringTCP), uint64(c.PeeringUDP), uint64(c.PanicQuarantined),
		c.TotalBytes, c.PeeringTCPBytes, c.PeeringUDPBytes} {
		payload = binary.BigEndian.AppendUint64(payload, v)
	}
	payload, err := analysis.AppendResult(payload, snap.Result)
	if err != nil {
		tb.Fatal(err)
	}
	out := binary.BigEndian.AppendUint32([]byte("IXPSNAP1"), uint32(len(payload)))
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload...)
}

// fakeSnap builds a minimal distinct opened week for cache unit tests.
func fakeSnap(week int) *snapshot.Opened {
	return mustOpen(&snapshot.Snapshot{Result: &webserver.Result{
		Week:    week,
		Servers: map[packet.IPv4Addr]*webserver.Server{},
	}})
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

// campaign writes a small campaign to a temp dir, mines a snapshot of
// every week into it, and returns its path.
func campaign(t testing.TB, weeks, samples int) string {
	t.Helper()
	dir, _, _ := minedCampaign(t, weeks, samples)
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
// snapshot load, and every client gets byte-identical bytes.
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
	if n := counters["serve_snapshot_loads_total"]; n != 1 {
		t.Fatalf("%d snapshot loads for one cold week under concurrent load, want exactly 1", n)
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

// TestServerCancelledAnalysisLeavesNothingBehind sends a request that
// is cancelled before it asks and verifies it starts nothing, leaves no
// goroutine behind, and does not poison a retry. (A load that blocks
// until cancelled is TestCacheAbandonedLoadIsCancelled's.)
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
	// The week is not poisoned: a live retry succeeds.
	view, err := s.cache.Get(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	if view.snap.Header().Week != first {
		t.Fatalf("retry returned week %d", view.snap.Header().Week)
	}
	// The abandoned request started no load; the retry opened the week.
	if n := reg.Counters()["serve_snapshot_loads_total"]; n != 1 {
		t.Fatalf("%d snapshot loads for one abandoned request and its retry, want 1", n)
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
		buf, err := json.Marshal(Summarize(mustOpen(snap)))
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
	if n := counters["serve_snapshot_loads_total"]; n != uint64(len(man.Weeks)) {
		t.Fatalf("snapshot loads %d, want %d", n, len(man.Weeks))
	}

	// The longitudinal series served over HTTP must match the series
	// computed from the direct results.
	snaps := make([]*snapshot.Opened, len(man.Weeks))
	for i, wk := range man.Weeks {
		snaps[i] = mustOpen(direct[wk])
	}
	series, err := ChurnSeries(man.Weeks, snaps)
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

// TestStoreRefusesUnminedWeeks: the store answers only from snapshots
// this build mined. A missing, stale, undecodable, attribute-less or
// IXPSNAP1 snapshot is ErrNotMined — a 503 naming the fix — and the week serves
// again once a proper snapshot is back, with no restart.
func TestStoreRefusesUnminedWeeks(t *testing.T) {
	dir, _, snaps := minedCampaign(t, 2, 1500)
	s, _ := openServer(t, dir, Config{CacheWeeks: 1})
	wk, other := s.store.Weeks()[0], s.store.Weeks()[1]
	path := filepath.Join(dir, snapshot.FileName(wk))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mined := snaps[wk].Snapshot()
	stale := *mined
	stale.SourceDigest = "deadbeef"
	bare := &snapshot.Snapshot{Result: mined.Result, Counts: mined.Counts, SourceDigest: mined.SourceDigest}
	for _, tc := range []struct {
		name  string
		write func() error
	}{
		{"missing", func() error { return os.Remove(path) }},
		{"stale", func() error { _, err := snapshot.SaveFileFS(vfs.Default, path, &stale); return err }},
		{"attribute-less", func() error { _, err := snapshot.SaveFileFS(vfs.Default, path, bare); return err }},
		{"undecodable", func() error { return os.WriteFile(path, good[:len(good)/2], 0o644) }},
		{"IXPSNAP1", func() error { return os.WriteFile(path, ixpsnap1(t, mined), 0o644) }},
		{"another week", func() error {
			b, err := os.ReadFile(filepath.Join(dir, snapshot.FileName(other)))
			if err == nil {
				err = os.WriteFile(path, b, 0o644)
			}
			return err
		}},
	} {
		if err := tc.write(); err != nil {
			t.Fatal(err)
		}
		// The other week's request evicts this one from the one-week
		// cache, so every case opens the file afresh.
		if code, body := serveGet(s, endpointPath("week", other, 0)); code != 200 {
			t.Fatalf("%s: intact week answered %d %s", tc.name, code, body)
		}
		for _, endpoint := range []string{"week", "servers", "ases", "visibility", "links"} {
			code, body := serveGet(s, endpointPath(endpoint, wk, 3))
			if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("not mined by this build: run ixpmine")) {
				t.Fatalf("%s: /%s answered %d %s, want 503 not mined", tc.name, endpoint, code, body)
			}
		}
		if code, _ := serveGet(s, "/churn"); code != http.StatusServiceUnavailable {
			t.Fatalf("%s: /churn answered %d, want 503", tc.name, code)
		}
		if _, err := s.store.Load(context.Background(), wk); !errors.Is(err, ErrNotMined) {
			t.Fatalf("%s: Load = %v, want ErrNotMined", tc.name, err)
		}
	}
	// Mined again: served again.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, body := serveGet(s, endpointPath("ases", wk, 3)); code != 200 {
		t.Fatalf("re-mined week answered %d %s", code, body)
	}
}

// TestErrorBodiesHidePaths: a failed request answers its status with a
// fixed public text, never the error behind it, which can name files on
// the server. Over one campaign, a deleted snapshot, a snapshot with a
// flipped bit in its links section and a snapshot deleted after it was
// opened keep the statuses they always answered, and no error body
// names the campaign directory.
func TestErrorBodiesHidePaths(t *testing.T) {
	dir, _, snaps := minedCampaign(t, 4, 1500)
	s, _ := openServer(t, dir, Config{})
	weeks := s.store.Weeks()
	deleted, flipped, vanished, intact := weeks[0], weeks[1], weeks[2], weeks[3]
	snapPath := func(wk int) string { return filepath.Join(dir, snapshot.FileName(wk)) }

	// Opened and cached before its file disappears: /week answers from
	// the server list held in memory, /links must re-read the file.
	if code, body := serveGet(s, endpointPath("week", vanished, 0)); code != 200 {
		t.Fatalf("week %d before the delete: %d %s", vanished, code, body)
	}
	if err := os.Remove(snapPath(vanished)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(snapPath(deleted)); err != nil {
		t.Fatal(err)
	}
	lp, err := snaps[flipped].Links()
	if err != nil {
		t.Fatal(err)
	}
	linksPayload, err := lp.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(snapPath(flipped))
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(b, linksPayload)
	if at < 0 {
		t.Fatal("links section not found in the snapshot file")
	}
	b[at+len(linksPayload)/2] ^= 0x04
	if err := os.WriteFile(snapPath(flipped), b, 0o644); err != nil {
		t.Fatal(err)
	}

	notMined := "not mined by this build: run ixpmine\n"
	for _, tc := range []struct {
		path string
		code int
		body string
	}{
		{endpointPath("week", deleted, 0), http.StatusServiceUnavailable, notMined},
		{endpointPath("links", deleted, 3), http.StatusServiceUnavailable, notMined},
		{endpointPath("week", flipped, 0), http.StatusServiceUnavailable, notMined},
		{endpointPath("links", flipped, 3), http.StatusServiceUnavailable, notMined},
		{endpointPath("week", vanished, 0), http.StatusOK, ""},
		{endpointPath("links", vanished, 3), http.StatusServiceUnavailable, notMined},
		{endpointPath("week", vanished, 0), http.StatusServiceUnavailable, notMined},
		{"/churn", http.StatusServiceUnavailable, notMined},
		{endpointPath("week", 99, 0), http.StatusNotFound, "week not in campaign\n"},
		{endpointPath("links", intact, 3), http.StatusOK, ""},
	} {
		code, body := serveGet(s, tc.path)
		if code != tc.code {
			t.Fatalf("%s: HTTP %d %s, want %d", tc.path, code, body, tc.code)
		}
		if bytes.Contains(body, []byte(dir)) || bytes.Contains(body, []byte(".snap")) {
			t.Fatalf("%s: body names a server-side path: %s", tc.path, body)
		}
		if tc.body != "" && string(body) != tc.body {
			t.Fatalf("%s: body %q, want %q", tc.path, body, tc.body)
		}
	}
}

// TestStoreNeverReadsCaptures: once mined, a campaign is served from its
// snapshots alone. Damaged and deleted capture files change no answer.
func TestStoreNeverReadsCaptures(t *testing.T) {
	dir := campaign(t, 2, 1500)
	clean, _ := openServer(t, dir, Config{})
	weeks := clean.store.Weeks()
	var paths []string
	for _, wk := range weeks {
		for _, endpoint := range []string{"week", "servers", "ases", "visibility", "links"} {
			paths = append(paths, endpointPath(endpoint, wk, 5))
		}
	}
	paths = append(paths, "/churn")
	want := make(map[string][]byte, len(paths))
	for _, p := range paths {
		code, body := serveGet(clean, p)
		if code != 200 {
			t.Fatalf("%s: HTTP %d %s", p, code, body)
		}
		want[p] = body
	}
	man := clean.store.Manifest()
	fi, err := os.Stat(filepath.Join(dir, man.Files[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faultline.FlipFileBitFS(vfs.Default, filepath.Join(dir, man.Files[0]), uint64(fi.Size()/2)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, man.Files[1])); err != nil {
		t.Fatal(err)
	}
	s, _ := openServer(t, dir, Config{})
	for _, p := range paths {
		if code, body := serveGet(s, p); code != 200 || !bytes.Equal(body, want[p]) {
			t.Fatalf("%s without intact captures: HTTP %d, same bytes %v", p, code, bytes.Equal(body, want[p]))
		}
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

	wk := mustOpen(snap)
	wantVis, err := rankVisibility(wk)
	if err != nil {
		t.Fatal(err)
	}
	wantVisBody, _ := json.Marshal(wantVis.top(7))
	lp, err := linksOf(wk)
	if err != nil {
		t.Fatal(err)
	}
	wantLinksBody, _ := json.Marshal(renderLinks(topK(lp.RankedMemberLinks(), 7)))

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
	if n := reg.Counters()["serve_snapshot_loads_total"]; n == 0 {
		t.Fatal("snapshot never loaded")
	}
}

// TestProductEndpointsWithoutAnalyzer404 mines a campaign under the
// webserver analyzer alone: the product endpoints must answer 404
// (ErrNoProduct), not crash, while the summary, the AS ranking and the
// churn series — which need only the server list and its attributes —
// still answer.
func TestProductEndpointsWithoutAnalyzer404(t *testing.T) {
	narrowed, err := analysis.Select("webserver")
	if err != nil {
		t.Fatal(err)
	}
	dir, _, _ := mineCampaign(t, 3, 2000, narrowed)
	s, _ := openServer(t, dir, Config{})
	first := s.store.Weeks()[0]
	for _, endpoint := range []string{"visibility", "links"} {
		if code, body := serveGet(s, endpointPath(endpoint, first, 0)); code != 404 {
			t.Fatalf("/%s: status %d, want 404: %s", endpoint, code, body)
		}
	}
	for _, path := range []string{endpointPath("week", first, 0), endpointPath("ases", first, 0), "/churn"} {
		if code, body := serveGet(s, path); code != 200 {
			t.Fatalf("%s under a narrowed registry: %d %s", path, code, body)
		}
	}
}
