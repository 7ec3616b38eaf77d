package serve

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"ixplens/internal/certsim"
	"ixplens/internal/core/webserver"
	"ixplens/internal/packet"
	"ixplens/internal/snapshot"
	"ixplens/internal/vfs"
)

// warmMix is the serve-warm workload's traffic mix (bench/load.go), in
// percent per endpoint; weeks are uniform.
var warmMix = []struct {
	endpoint string
	percent  int
}{
	{"week", 30}, {"servers", 20}, {"ases", 20}, {"visibility", 10}, {"links", 10}, {"churn", 5}, {"weeks", 5},
}

// BenchmarkServeWarmMix drives ServeHTTP in-process over the serve-warm
// request mix with all 17 weeks resident: one op is one request, so
// ns/op, B/op and allocs/op are the handler-side cost of the mix with
// the socket left out.
func BenchmarkServeWarmMix(b *testing.B) {
	dir, _, _ := minedCampaign(b, 17, 2000)
	s, _ := openServer(b, dir, Config{})
	weeks := s.store.Weeks()

	// 100 requests hold every endpoint's exact share; the order and the
	// weeks are seeded, as in the harness.
	rng := rand.New(rand.NewSource(1))
	var paths []string
	for _, m := range warmMix {
		for i := 0; i < m.percent; i++ {
			paths = append(paths, endpointPath(m.endpoint, weeks[rng.Intn(len(weeks))], 10))
		}
	}
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })

	// Warm up as the harness does: every week loaded once.
	for _, wk := range weeks {
		if code, body := serveGet(s, endpointPath("week", wk, 0)); code != 200 {
			b.Fatalf("week %d: HTTP %d: %s", wk, code, body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := paths[i%len(paths)]
		if code, body := serveGet(s, path); code != 200 {
			b.Fatalf("%s: HTTP %d: %s", path, code, body)
		}
	}
}

// BenchmarkColdLoad is the serve-cold access pattern in-process: a
// one-week cache, /week/{n} then /week/{n}/servers, alternating between
// two weeks, so every op loads and decodes a snapshot from disk. ns/op,
// B/op and allocs/op are one cold load plus the two renderings.
func BenchmarkColdLoad(b *testing.B) {
	dir, _, _ := minedCampaign(b, 2, 2000)
	s, _ := openServer(b, dir, Config{CacheWeeks: 1})
	weeks := s.store.Weeks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wk := weeks[i%len(weeks)]
		for _, path := range []string{endpointPath("week", wk, 0), endpointPath("servers", wk, 10)} {
			if code, body := serveGet(s, path); code != 200 {
				b.Fatalf("%s: HTTP %d: %s", path, code, body)
			}
		}
	}
	b.StopTimer()
	if hits := s.m.CacheHits.Value(); hits != uint64(b.N) {
		b.Fatalf("%d cache hits over %d ops: want exactly the /servers request of each", hits, b.N)
	}
}

// TestColdWeekAllocs: a cold /week/{n} followed by its
// /week/{n}/servers?k=10, through ServeHTTP on a one-week cache, costs
// the same number of allocations for a 100-server week as for a
// 10 000-server one. The opened week's index is one slab whatever the
// server count; nothing is allocated per server.
func TestColdWeekAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	dir, _, snaps := minedCampaign(t, 2, 2000)
	coldAllocs := func(n int) uint64 {
		for wk, o := range snaps {
			snap := *o.Snapshot()
			snap.Result = syntheticWeek(wk, n)
			if _, err := snapshot.SaveFileFS(vfs.Default, filepath.Join(dir, snapshot.FileName(wk)), &snap); err != nil {
				t.Fatal(err)
			}
		}
		s, _ := openServer(t, dir, Config{CacheWeeks: 1})
		weeks := s.store.Weeks()
		i := 0
		return fewestAllocs(func() {
			wk := weeks[i%len(weeks)]
			i++
			for _, path := range []string{endpointPath("week", wk, 0), endpointPath("servers", wk, 10)} {
				if code, body := serveGet(s, path); code != 200 {
					t.Fatalf("%s: HTTP %d: %s", path, code, body)
				}
			}
		})
	}
	small, large := coldAllocs(100), coldAllocs(10000)
	t.Logf("cold /week + /servers?k=10: %d allocations at 100 servers, %d at 10000", small, large)
	if large > small {
		t.Fatalf("cold week allocations grow with its servers: %d at 100, %d at 10000", small, large)
	}
}

// syntheticWeek is a result of n servers, each with ports, hosts, a
// subject and alt names, so that per-server allocations would show.
func syntheticWeek(week, n int) *webserver.Result {
	res := &webserver.Result{Week: week, Servers: make(map[packet.IPv4Addr]*webserver.Server, n), TotalIPs: 4 * n}
	for i := 0; i < n; i++ {
		ip := packet.IPv4Addr(0x0a000000 + uint32(i)*7)
		res.Servers[ip] = &webserver.Server{
			IP: ip, HTTP: true, HTTPS: i%2 == 0, Bytes: uint64(i%977) * 1500, Member: int32(i % 50),
			Ports: []uint16{80, 443}, Hosts: []string{fmt.Sprintf("h%d.example", i)},
			Cert: certsim.Info{Subject: fmt.Sprintf("s%d.example", i), AltNames: []string{"alt.example"}},
		}
	}
	return res
}

// fewestAllocs is the fewest heap allocations f made in 20 calls: a
// call that happens to refill a pool a collection emptied counts more.
func fewestAllocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	fewest := uint64(math.MaxUint64)
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		fewest = min(fewest, ms.Mallocs-before)
	}
	return fewest
}
