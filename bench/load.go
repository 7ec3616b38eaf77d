package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// endpointURL renders one endpoint's path for a week.
func endpointURL(name string, week int) string {
	switch name {
	case "week":
		return fmt.Sprintf("/week/%d", week)
	case "churn", "weeks":
		return "/" + name
	default:
		return fmt.Sprintf("/week/%d/%s?k=10", week, name)
	}
}

// warmMix is every endpoint with its share of the serve-warm traffic in
// percent; weeks are uniform.
var warmMix = []struct {
	endpoint string
	percent  int
}{
	{"week", 30}, {"servers", 20}, {"ases", 20}, {"visibility", 10}, {"links", 10}, {"churn", 5}, {"weeks", 5},
}

// plan is one pass over a workload's request sequence: the paths each
// closed-loop client sends, in order. Every pass replays the same plan.
type plan [][]string

// warmPlan holds each endpoint's exact share of the requests (so the
// number of expensive /churn requests does not vary with the seed), in a
// seeded order with seeded uniform weeks, dealt round-robin to the
// clients.
func warmPlan(seed int64, clients, requests int, weeks []int) plan {
	rng := rand.New(rand.NewSource(seed))
	paths := make([]string, 0, requests)
	for _, m := range warmMix {
		for i := 0; i < requests*m.percent/100; i++ {
			paths = append(paths, endpointURL(m.endpoint, weeks[rng.Intn(len(weeks))]))
		}
	}
	for len(paths) < requests { // rounding remainder
		paths = append(paths, endpointURL("week", weeks[rng.Intn(len(weeks))]))
	}
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	p := make(plan, clients)
	for i, path := range paths {
		p[i%clients] = append(p[i%clients], path)
	}
	return p
}

// coldPlan makes every request miss a small cache: client c walks the
// weeks at positions c, c+clients, ... cyclically, alternating the
// summary and the top-servers endpoint. The partitions are disjoint, so
// no client ever asks for a week another one just loaded, however far
// their closed loops drift apart.
func coldPlan(clients, requests int, weeks []int) plan {
	p := make(plan, clients)
	for c := range p {
		var mine []int
		for i := c; i < len(weeks); i += clients {
			mine = append(mine, weeks[i])
		}
		for i := 0; i < requests/clients; i++ {
			name := "week"
			if (i+i/len(mine))%2 == 1 {
				name = "servers"
			}
			p[c] = append(p[c], endpointURL(name, mine[i%len(mine)]))
		}
	}
	return p
}

// bodyBook remembers the first body seen for each URL; every later
// response for that URL must carry the same bytes.
type bodyBook struct {
	mu   sync.Mutex
	sums map[string][sha256.Size]byte
}

func newBodyBook() *bodyBook { return &bodyBook{sums: map[string][sha256.Size]byte{}} }

func (b *bodyBook) same(url string, body []byte) bool {
	sum := sha256.Sum256(body)
	b.mu.Lock()
	defer b.mu.Unlock()
	first, seen := b.sums[url]
	if !seen {
		b.sums[url] = sum
		return true
	}
	return first == sum
}

// newClients opens one keep-alive connection per closed-loop client.
func newClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// pass is one timed trip over a plan.
type pass struct {
	wall   time.Duration
	lat    []time.Duration
	failed int
	firstE string // first failure, for the report
}

// runPass drives the plan closed-loop: each client sends its next
// request only when the previous reply is fully read. A non-200 reply or
// a body that differs from the URL's first body counts as failed.
func runPass(clients []*http.Client, base string, p plan, book *bodyBook) pass {
	results := make([]pass, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			r.lat = make([]time.Duration, 0, len(p[c]))
			for _, path := range p[c] {
				t0 := time.Now()
				code, body, err := get(clients[c], base+path)
				r.lat = append(r.lat, time.Since(t0))
				var why string
				switch {
				case err != nil:
					why = err.Error()
				case code != http.StatusOK:
					why = fmt.Sprintf("HTTP %d: %s", code, bytes.TrimSpace(body))
				case !book.same(path, body):
					why = "body differs from the first reply for this URL"
				default:
					continue
				}
				r.failed++
				if r.firstE == "" {
					r.firstE = path + ": " + why
				}
			}
		}(c)
	}
	wg.Wait()
	out := pass{wall: time.Since(start)}
	for _, r := range results {
		out.lat = append(out.lat, r.lat...)
		out.failed += r.failed
		if out.firstE == "" {
			out.firstE = r.firstE
		}
	}
	return out
}
