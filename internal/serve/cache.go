package serve

import (
	"container/list"
	"context"
	"sync"

	"ixplens/internal/snapshot"
)

// loadFunc materializes one week (the Store's Load).
type loadFunc func(ctx context.Context, isoWeek int) (*snapshot.Opened, error)

// Cache is the serving layer's bounded in-memory week cache with
// single-flight deduplication: concurrent requests for the same
// unopened week trigger exactly one load, every waiter shares its
// outcome, and the least recently used week is evicted once capacity
// is reached.
//
// What it holds per week is a weekView: the immutable opened week plus
// the ranked results derived from it on first use. A view lives and dies
// with its cache entry, so the capacity bounds derived state as well.
//
// Loads run on a private goroutine whose context descends from the
// cache's base context, not from any single request: a request that
// gives up (client disconnect, per-request timeout) detaches without
// killing the load other waiters are sharing. Only when the LAST
// waiter detaches is the load cancelled, so an abandoned load stops
// promptly and leaves no goroutine behind. Closing the cache
// cancels every in-flight load.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[int]*list.Element
	order   *list.List // front = most recently used
	flights map[int]*flight
	load    loadFunc
	m       *Metrics
	// gen numbers the successful loads; see weekView.gen.
	gen uint64

	base   context.Context
	cancel context.CancelFunc
	// loads tracks in-flight load goroutines so Close can wait for
	// them — a drained server leaves nothing running.
	loads sync.WaitGroup
}

type cacheEntry struct {
	week int
	view *weekView
}

// flight is one in-progress load and its waiters.
type flight struct {
	cancel  context.CancelFunc
	waiters int
	done    chan struct{}
	view    *weekView
	err     error
}

// NewCache builds a cache of at most capacity weeks (minimum 1) over
// load. m must be non-nil (use NewMetrics(nil) for no-ops).
func NewCache(capacity int, load loadFunc, m *Metrics) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	base, cancel := context.WithCancel(context.Background())
	return &Cache{
		cap:     capacity,
		entries: make(map[int]*list.Element),
		order:   list.New(),
		flights: make(map[int]*flight),
		load:    load,
		m:       m,
		base:    base,
		cancel:  cancel,
	}
}

// Close cancels every in-flight load and waits for their goroutines to
// finish. Get calls racing Close fail with context.Canceled.
func (c *Cache) Close() {
	c.cancel()
	c.loads.Wait()
}

// Get returns the cached week, joining or starting a load on a miss.
// Cancelling ctx abandons the wait (and the load itself, if this was
// its last waiter); the load's outcome still reaches waiters that
// stayed.
func (c *Cache) Get(ctx context.Context, isoWeek int) (*weekView, error) {
	c.mu.Lock()
	if el, ok := c.entries[isoWeek]; ok {
		c.order.MoveToFront(el)
		view := el.Value.(*cacheEntry).view
		c.mu.Unlock()
		c.m.CacheHits.Inc()
		return view, nil
	}
	c.m.CacheMisses.Inc()
	if err := ctx.Err(); err != nil {
		// Abandoned before it asked: start nothing. (A snapshot opens in
		// about a millisecond, so a load started here could finish before
		// the wait below, which would then pick either outcome.)
		c.mu.Unlock()
		return nil, err
	}
	f, ok := c.flights[isoWeek]
	if ok {
		c.m.FlightJoins.Inc()
	} else {
		fctx, cancel := context.WithCancel(c.base)
		f = &flight{cancel: cancel, done: make(chan struct{})}
		c.flights[isoWeek] = f
		c.loads.Add(1)
		go c.run(fctx, isoWeek, f)
	}
	f.waiters++
	c.mu.Unlock()

	select {
	case <-f.done:
		return f.view, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		abandoned := f.waiters == 0
		c.mu.Unlock()
		if abandoned {
			f.cancel()
		}
		return nil, ctx.Err()
	}
}

// run performs one load and publishes its outcome. A failed load (a
// snapshot that does not open, or cancellation after every waiter
// left) is not cached; the next request retries.
func (c *Cache) run(ctx context.Context, isoWeek int, f *flight) {
	defer c.loads.Done()
	defer f.cancel()
	snap, err := c.load(ctx, isoWeek)

	c.mu.Lock()
	delete(c.flights, isoWeek)
	f.err = err
	if err == nil {
		c.gen++
		f.view = &weekView{snap: snap, gen: c.gen}
		c.insertLocked(isoWeek, f.view)
	}
	close(f.done)
	c.mu.Unlock()
}

// insertLocked adds a week, evicting from the LRU tail past capacity.
func (c *Cache) insertLocked(isoWeek int, view *weekView) {
	if el, ok := c.entries[isoWeek]; ok {
		el.Value.(*cacheEntry).view = view
		c.order.MoveToFront(el)
		return
	}
	c.entries[isoWeek] = c.order.PushFront(&cacheEntry{week: isoWeek, view: view})
	for c.order.Len() > c.cap {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).week)
		c.m.Evictions.Inc()
	}
}

// Drop evicts view's week if view is still what the cache holds for
// it, so the next request opens the week again. A caller that found its
// week broken on disk drops it; a newer load of the week stays.
func (c *Cache) Drop(isoWeek int, view *weekView) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[isoWeek]; ok && el.Value.(*cacheEntry).view == view {
		c.order.Remove(el)
		delete(c.entries, isoWeek)
		c.m.Evictions.Inc()
	}
}

// Has reports whether a week is currently cached, without touching
// the LRU order.
func (c *Cache) Has(isoWeek int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[isoWeek]
	return ok
}

// Len returns the number of cached weeks.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
