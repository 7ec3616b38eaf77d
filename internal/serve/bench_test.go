package serve

import (
	"math/rand"
	"testing"
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
