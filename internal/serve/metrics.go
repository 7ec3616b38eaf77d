package serve

import "ixplens/internal/obs"

// Metrics is the serving layer's observability bundle: the request
// funnel (latency, in-flight level, load shedding), the week cache
// (hits, misses, evictions, single-flight joins) and the snapshot
// store (snapshot loads).
// NewMetrics always returns a usable bundle — with a nil registry the
// fields are nil metrics, whose methods are no-ops — so the serving
// code never branches on instrumentation.
type Metrics struct {
	// ReqNanos is the wall-time distribution of one served request,
	// including any snapshot load it triggered; InFlight is the number of
	// requests currently inside the handler.
	ReqNanos *obs.Histogram
	InFlight *obs.Gauge
	// EndpointNanos splits the handler part of ReqNanos by endpoint,
	// one histogram per name in endpoints, so a slow request can be
	// told from a slow endpoint.
	EndpointNanos map[string]*obs.Histogram
	// Shed counts requests rejected with 503 because the in-flight
	// limit was reached — the server sheds instead of queueing.
	Shed *obs.Counter
	// CacheHits/CacheMisses count week-cache lookups; Evictions counts
	// weeks dropped by the bounded cache; FlightJoins counts requests
	// that attached to a load another request already started.
	CacheHits   *obs.Counter
	CacheMisses *obs.Counter
	Evictions   *obs.Counter
	FlightJoins *obs.Counter
	// ViewBuilds counts derived per-week results (a ranking, the
	// rendered summary) built from a cached snapshot; ChurnBuilds counts
	// computations of the /churn series. Both are memoized, so on a
	// server with every week resident ViewBuilds stops at weeks × 5 and
	// ChurnBuilds at 1, whatever the request count.
	ViewBuilds  *obs.Counter
	ChurnBuilds *obs.Counter
	// SnapshotLoads counts weeks opened from their on-disk snapshot:
	// the cache-miss work the store actually performed.
	SnapshotLoads *obs.Counter
}

// endpoints names the query endpoints that get their own
// serve_request_ns{endpoint=...} histogram.
var endpoints = []string{"week", "servers", "ases", "visibility", "links", "churn", "weeks"}

// NewMetrics resolves the serving metrics in r; a nil registry yields
// a bundle of no-op metrics.
func NewMetrics(r *obs.Registry) *Metrics {
	byEndpoint := make(map[string]*obs.Histogram, len(endpoints))
	for _, name := range endpoints {
		byEndpoint[name] = r.Histogram("serve_request_ns{endpoint=" + name + "}")
	}
	return &Metrics{
		ReqNanos:      r.Histogram("serve_request_ns"),
		InFlight:      r.Gauge("serve_inflight"),
		EndpointNanos: byEndpoint,
		Shed:          r.Counter("serve_shed_total"),
		CacheHits:     r.Counter("serve_cache_hits_total"),
		CacheMisses:   r.Counter("serve_cache_misses_total"),
		Evictions:     r.Counter("serve_cache_evictions_total"),
		FlightJoins:   r.Counter("serve_flight_joins_total"),
		ViewBuilds:    r.Counter("serve_view_builds_total"),
		ChurnBuilds:   r.Counter("serve_churn_builds_total"),
		SnapshotLoads: r.Counter("serve_snapshot_loads_total"),
	}
}
