package serve

import (
	"slices"
	"sync"

	"ixplens/internal/analysis"
	"ixplens/internal/obs"
	"ixplens/internal/snapshot"
)

// weekView is what the cache holds for one week: the immutable opened
// week plus the derived results its endpoints serve. Each result is a
// total order (every ranking breaks ties on a unique key), built on the
// first request that needs it and shared, read-only, by every later one
// — a top-k answer is a prefix of it. The server ranking is built only
// as far as requests have read it. The view is garbage with its cache
// entry, so -cache-weeks bounds derived state too.
type weekView struct {
	snap *snapshot.Opened
	// gen is the cache's load generation: every successful load gets the
	// next number (from 1), so equal gens mean the same load of the same
	// week. The /churn memo keys on it instead of on the snapshot
	// pointer, which would pin evicted weeks in memory.
	gen uint64

	summary memo[[]byte] // the rendered /week/{n} body
	servers prefix[ServerEntry]
	ases    memo[[]ASEntry]
	vis     memo[VisibilitySummary] // ByIPs and ByBytes rank every country
	links   memo[[]analysis.MemberLink]
}

// memo is a value built at most once, on first use. The zero value is
// ready; an error is memoized like a value (over an immutable snapshot
// it is as permanent as one).
type memo[T any] struct {
	once sync.Once
	val  T
	err  error
}

// get returns the value, calling build — and counting it in builds —
// only the first time.
func (m *memo[T]) get(builds *obs.Counter, build func() (T, error)) (T, error) {
	m.once.Do(func() {
		builds.Inc()
		m.val, m.err = build()
	})
	return m.val, m.err
}

// prefix is a ranking built only as far as requests have read it: the
// first rows of a total order, extended when a request asks past them.
// The zero value is ready.
type prefix[T any] struct {
	mu    sync.Mutex
	rows  []T
	built bool
	// all marks rows as the whole ranking: a larger k finds no more.
	all bool
}

// get returns the first k rows. When the prefix is shorter and not the
// whole ranking, extend builds the first k rows from the ones built so
// far; the first build counts in builds. Rows handed out are never
// written again: extend returns a new slice.
func (p *prefix[T]) get(builds *obs.Counter, k int, extend func(have []T, k int) []T) []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.rows) < k && !p.all {
		if !p.built {
			builds.Inc()
			p.built = true
		}
		p.rows = extend(p.rows, k)
		p.all = len(p.rows) < k
	}
	return topK(p.rows, k)
}

// topK is the first k entries of a ranking. Rankings are shared between
// requests, so the prefix's capacity is clipped: an append by the caller
// reallocates instead of writing into the ranking.
func topK[T any](ranked []T, k int) []T {
	return slices.Clip(ranked[:min(k, len(ranked))])
}

// churnMemo is the rendered /churn body together with the load
// generation of every week it was computed from (0 for a gap week). A
// reload or an eviction gives a week a new generation, so the next
// request sees a different key and recomputes the series.
type churnMemo struct {
	mu   sync.Mutex
	gens []uint64
	body []byte
}

// get returns the body for gens, calling build unless the memoized body
// was computed from the same loads. The lock is held across build, so
// concurrent requests for one key share a single computation. A failed
// build is not memoized.
func (c *churnMemo) get(gens []uint64, build func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.body != nil && slices.Equal(c.gens, gens) {
		return c.body, nil
	}
	body, err := build()
	if err != nil {
		return nil, err
	}
	c.gens, c.body = gens, body
	return body, nil
}
