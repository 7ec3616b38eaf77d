// Package serve turns an analyzed measurement campaign into a queryable
// HTTP service — the missing serving path between the 17-week study and
// its downstream consumers (longitudinal IXP series, vantage-point
// aggregates). It is stdlib-only, like the rest of the stack.
//
// A request for a week is answered from, in order: the bounded
// in-memory cache, the on-disk snapshot store (milliseconds), or a full
// lazy analysis of the capture file (single-flighted, so concurrent
// requests for the same cold week trigger exactly one run). The handler
// enforces a per-request timeout and a bounded in-flight limit that
// sheds excess load with 503 instead of queueing unboundedly; every
// stage is instrumented through internal/obs.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"ixplens/internal/analysis"
	"ixplens/internal/core/churn"
	"ixplens/internal/core/visibility"
	"ixplens/internal/core/webserver"
	"ixplens/internal/obs"
	"ixplens/internal/pipeline"
	"ixplens/internal/snapshot"
)

// Config tunes the serving layer. The zero value gets sensible
// defaults from New.
type Config struct {
	// CacheWeeks bounds the in-memory week cache (default 32).
	CacheWeeks int
	// MaxInFlight bounds concurrently handled requests; excess load is
	// shed with 503 (default 64).
	MaxInFlight int
	// Timeout bounds one request, including any analysis it triggers
	// (default 120s; 0 keeps the default, negative disables).
	Timeout time.Duration
	// TopK is the default k for the top-k endpoints (default 10).
	TopK int
}

func (c Config) withDefaults() Config {
	if c.CacheWeeks == 0 {
		c.CacheWeeks = 32
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.Timeout == 0 {
		c.Timeout = 120 * time.Second
	}
	if c.TopK == 0 {
		c.TopK = 10
	}
	return c
}

// Server is the HTTP query layer over one campaign.
//
//	GET /healthz                      liveness (never shed)
//	GET /metrics                      plain-text metrics snapshot
//	GET /weeks                        campaign inventory
//	GET /week/{week}                  one week's summary aggregates
//	GET /week/{week}/servers?k=10     top-k servers by traffic
//	GET /week/{week}/ases?k=10        top-k server-hosting ASes by traffic
//	GET /week/{week}/visibility?k=10  §3 visibility: observed IPs, top countries
//	GET /week/{week}/links?k=10       top-k member-pair peering links by traffic
//	GET /churn                        longitudinal churn series (all weeks)
type Server struct {
	store *Store
	cache *Cache
	cfg   Config
	m     *Metrics
	reg   *obs.Registry
	mux   *http.ServeMux
	sem   chan struct{}
	churn churnMemo
}

// New builds a server over store. reg (optional) receives the serving
// metrics and backs the /metrics endpoint.
func New(store *Store, cfg Config, reg *obs.Registry) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics(reg)
	store.SetMetrics(m)
	s := &Server{
		store: store,
		cache: NewCache(cfg.CacheWeeks, store.Load, m),
		cfg:   cfg,
		m:     m,
		reg:   reg,
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.MaxInFlight),
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.route("GET /weeks", "weeks", s.handleWeeks)
	s.route("GET /week/{week}", "week", s.handleWeek)
	s.route("GET /week/{week}/servers", "servers", s.handleTopServers)
	s.route("GET /week/{week}/ases", "ases", s.handleTopASes)
	s.route("GET /week/{week}/visibility", "visibility", s.handleVisibility)
	s.route("GET /week/{week}/links", "links", s.handleLinks)
	s.route("GET /churn", "churn", s.handleChurn)
	return s
}

// route registers a query endpoint and times it into its own
// serve_request_ns{endpoint=...} histogram.
func (s *Server) route(pattern, endpoint string, h http.HandlerFunc) {
	hist := s.m.EndpointNanos[endpoint]
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		defer hist.ObserveSince(time.Now())
		h(w, r)
	})
}

// Close cancels in-flight analyses and waits for them — the drain step
// of a graceful shutdown, after the HTTP listener stops accepting.
func (s *Server) Close() { s.cache.Close() }

// ServeHTTP dispatches with load shedding and the per-request timeout.
// The liveness endpoint bypasses both, so an overloaded server still
// reports alive rather than flapping its orchestrator.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		s.handleHealthz(w, r)
		return
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.m.Shed.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "server at capacity", http.StatusServiceUnavailable)
		return
	}
	defer func() { <-s.sem }()
	s.m.InFlight.Add(1)
	defer s.m.InFlight.Add(-1)
	start := time.Now()
	defer s.m.ReqNanos.ObserveSince(start)
	if s.cfg.Timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

// retryAfterSeconds derives the shed response's Retry-After hint from
// the observed analysis-duration distribution: slots free up when
// in-flight work finishes, and the slow work is full analyses, so the
// honest hint is the p90 analysis time rounded up to whole seconds.
// Before any analysis has been observed — or when every request is
// served from snapshots — it stays at the 1s floor; a 60s cap keeps a
// pathological outlier from telling clients to go away for minutes.
func (s *Server) retryAfterSeconds() int {
	h := s.m.AnalyzeNanos
	if h.Count() == 0 {
		return 1
	}
	secs := (h.Quantile(0.90) + uint64(time.Second) - 1) / uint64(time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return int(secs)
}

// ErrNoProduct marks a request for an analyzer product the serving
// environment's registry does not produce (e.g. /week/{n}/links on a
// server running a webserver-only registry). Test with errors.Is.
var ErrNoProduct = errors.New("serve: analyzer product not available")

// fail maps a load error onto an HTTP status.
func fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownWeek):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrNoProduct):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "analysis timed out", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		http.Error(w, "request abandoned or server draining", http.StatusServiceUnavailable)
	case errors.Is(err, pipeline.ErrLossExceeded):
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	case errors.Is(err, ErrQuarantinedWeek):
		// The week exists in the campaign calendar but its data never
		// passed the pipeline: not a 404 (the week is known), not a 500
		// (the server is fine) — the entity is simply unprocessable.
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	case errors.Is(err, snapshot.ErrFormat), errors.Is(err, snapshot.ErrSectionVersion):
		// A product section that verified at load but does not decode on
		// first use: the week is known and the server is fine, but this
		// product of it cannot be served.
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeJSON emits a deterministic JSON document: marshal then a single
// trailing newline. Determinism (same value → same bytes) is part of
// the serving contract — the golden tests compare responses byte for
// byte against directly analyzed results.
func writeJSON(w http.ResponseWriter, v interface{}) {
	body, err := renderJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, body)
}

// renderJSON is the body writeJSON sends, for the responses that are
// rendered once and served many times.
func renderJSON(v interface{}) ([]byte, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleHealthz reports liveness plus campaign data health: "ok" when
// every week is servable, "degraded" — with the quarantined-week list —
// when the supervised runner had to give up on some. Orchestrators keep
// a degraded server in rotation (it still serves 200) but the hole is
// visible to anyone who asks.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	doc := map[string]interface{}{"status": "ok", "weeks": len(s.store.Weeks())}
	if q := s.store.Quarantined(); len(q) > 0 {
		doc["status"] = "degraded"
		doc["quarantined"] = q
	}
	writeJSON(w, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.reg == nil {
		fmt.Fprintln(w, "# instrumentation disabled (no registry attached)")
		return
	}
	s.reg.WriteText(w)
}

// WeekInfo is one row of the /weeks inventory.
type WeekInfo struct {
	Week        int    `json:"week"`
	File        string `json:"file"`
	Cached      bool   `json:"cached"`
	Quarantined bool   `json:"quarantined,omitempty"`
}

func (s *Server) handleWeeks(w http.ResponseWriter, _ *http.Request) {
	man := s.store.Manifest()
	out := make([]WeekInfo, len(man.Weeks))
	for i, wk := range man.Weeks {
		out[i] = WeekInfo{
			Week:        wk,
			File:        man.Files[i],
			Cached:      s.cache.Has(wk),
			Quarantined: s.store.IsQuarantined(wk),
		}
	}
	writeJSON(w, out)
}

// weekParam parses the {week} path value.
func weekParam(r *http.Request) (int, error) {
	return strconv.Atoi(r.PathValue("week"))
}

// kParam parses ?k=: def when absent, an error for anything but a
// positive integer, and a hard cap of 1000 on whatever results.
func kParam(r *http.Request, def int) (int, error) {
	k := def
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("bad k %q", v)
		}
		k = n
	}
	return min(k, 1000), nil
}

// view resolves the request's {week} through the cache. On a bad
// parameter or a failed load it writes the error response itself and
// returns ok false.
func (s *Server) view(w http.ResponseWriter, r *http.Request) (v *weekView, ok bool) {
	wk, err := weekParam(r)
	if err != nil {
		http.Error(w, "bad week", http.StatusBadRequest)
		return nil, false
	}
	v, err = s.cache.Get(r.Context(), wk)
	if err != nil {
		fail(w, err)
		return nil, false
	}
	return v, true
}

// viewK is view for the top-k endpoints. A malformed ?k= is refused
// before the week is loaded.
func (s *Server) viewK(w http.ResponseWriter, r *http.Request) (v *weekView, k int, ok bool) {
	k, err := kParam(r, s.cfg.TopK)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, 0, false
	}
	v, ok = s.view(w, r)
	return v, k, ok
}

// WeekSummary is the /week/{n} response: the week's aggregates exactly
// as the analysis produced them, including the loss annotation.
type WeekSummary struct {
	Week               int     `json:"week"`
	Samples            int     `json:"samples"`
	PeeringShare       float64 `json:"peering_share"`
	TCPShare           float64 `json:"tcp_share"`
	PanicQuarantined   int     `json:"panic_quarantined"`
	TotalIPs           int     `json:"total_ips"`
	Servers            int     `json:"servers"`
	HTTPSServers       int     `json:"https_servers"`
	Candidates443      int     `json:"candidates_443"`
	Responded443       int     `json:"responded_443"`
	Valid443           int     `json:"valid_443"`
	MultiPurpose       int     `json:"multi_purpose"`
	DualRole           int     `json:"dual_role"`
	ServerBytes        uint64  `json:"server_bytes"`
	ServerTrafficShare float64 `json:"server_traffic_share"`
	EstLoss            float64 `json:"est_loss"`
}

// Summarize renders a week's summary aggregates from its header and
// server index; no record is decoded. It is exported so golden tests can
// compare a served response byte for byte against a directly analyzed
// result.
func Summarize(wk *snapshot.Opened) WeekSummary {
	res, counts := wk.Header(), &wk.Counts
	srv := analysis.CountServers(wk.Servers())
	peerBytes := counts.PeeringTCPBytes + counts.PeeringUDPBytes
	share := 0.0
	if peerBytes > 0 {
		share = float64(res.ServerBytes) / float64(peerBytes)
		if share > 1 {
			share = 1
		}
	}
	return WeekSummary{
		Week:               res.Week,
		Samples:            counts.Total,
		PeeringShare:       counts.PeeringShare(),
		TCPShare:           counts.TCPShare(),
		PanicQuarantined:   counts.PanicQuarantined,
		TotalIPs:           res.TotalIPs,
		Servers:            srv.Servers,
		HTTPSServers:       srv.HTTPS,
		Candidates443:      res.Candidates443,
		Responded443:       res.Responded443,
		Valid443:           res.Valid443,
		MultiPurpose:       srv.MultiPurpose,
		DualRole:           srv.DualRole,
		ServerBytes:        res.ServerBytes,
		ServerTrafficShare: share,
		EstLoss:            res.EstLoss,
	}
}

func (s *Server) handleWeek(w http.ResponseWriter, r *http.Request) {
	v, ok := s.view(w, r)
	if !ok {
		return
	}
	body, err := v.summary.get(s.m.ViewBuilds, func() ([]byte, error) {
		return renderJSON(Summarize(v.snap))
	})
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, body)
}

// ServerEntry is one row of the /week/{n}/servers response.
type ServerEntry struct {
	IP         string   `json:"ip"`
	Bytes      uint64   `json:"bytes"`
	HTTP       bool     `json:"http"`
	HTTPS      bool     `json:"https"`
	AlsoClient bool     `json:"also_client"`
	Member     int32    `json:"member"`
	Ports      []uint16 `json:"ports,omitempty"`
	Hosts      []string `json:"hosts,omitempty"`
}

// TopServers renders the k highest-traffic servers of a week,
// deterministically ordered (bytes descending, IP ascending). It ranks
// the full result with webserver.Result.TopServers, independently of
// the served index selection, so golden tests can hold one against the
// other.
func TopServers(wk *snapshot.Opened, k int) []ServerEntry {
	top := wk.Result().TopServers(k)
	out := make([]ServerEntry, len(top))
	for i, srv := range top {
		out[i] = serverEntry(srv)
	}
	return out
}

// serverEntry renders one server row.
func serverEntry(srv *webserver.Server) ServerEntry {
	return ServerEntry{
		IP:         srv.IP.String(),
		Bytes:      srv.Bytes,
		HTTP:       srv.HTTP,
		HTTPS:      srv.HTTPS,
		AlsoClient: srv.AlsoClient,
		Member:     srv.Member,
		Ports:      srv.Ports,
		Hosts:      srv.Hosts,
	}
}

// rankServers extends a week's server ranking to its first k rows: it
// selects the index's top k refs with a bounded selection and decodes
// only the records past the rows already rendered in have.
func rankServers(wk *snapshot.Opened, have []ServerEntry, k int) []ServerEntry {
	top := analysis.TopRefs(wk.Servers(), k)
	rows := make([]ServerEntry, len(top))
	copy(rows, have)
	for i := len(have); i < len(top); i++ {
		rows[i] = serverEntry(wk.Server(top[i]))
	}
	return rows
}

func (s *Server) handleTopServers(w http.ResponseWriter, r *http.Request) {
	v, k, ok := s.viewK(w, r)
	if !ok {
		return
	}
	rows := v.servers.get(s.m.ViewBuilds, k, func(have []ServerEntry, k int) []ServerEntry {
		return rankServers(v.snap, have, k)
	})
	writeJSON(w, rows)
}

// ASEntry is one row of the /week/{n}/ases response.
type ASEntry struct {
	ASN     uint32 `json:"asn"`
	Servers int    `json:"servers"`
	Bytes   uint64 `json:"bytes"`
}

// TopASes aggregates a week's server traffic by origin AS (resolved
// through the environment's entity table) and returns the k largest,
// bytes descending then ASN ascending. Unresolved IPs (ASN 0) are
// excluded — a lookup failure is not an AS.
func TopASes(env *pipeline.Env, wk *snapshot.Opened, k int) []ASEntry {
	return topK(rankASes(env, wk), k)
}

// rankASes is TopASes' aggregation and total order over every AS. It
// reads the server index alone: an IP and its bytes per server.
func rankASes(env *pipeline.Env, wk *snapshot.Opened) []ASEntry {
	tab := env.EntityTable()
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

func (s *Server) handleTopASes(w http.ResponseWriter, r *http.Request) {
	v, k, ok := s.viewK(w, r)
	if !ok {
		return
	}
	ranked, _ := v.ases.get(s.m.ViewBuilds, func() ([]ASEntry, error) {
		return rankASes(s.store.Env(), v.snap), nil
	})
	writeJSON(w, topK(ranked, k))
}

// CountryShare is one row of a visibility country ranking.
type CountryShare struct {
	Country string `json:"country"`
	IPs     int    `json:"ips"`
	Bytes   uint64 `json:"bytes"`
}

// VisibilitySummary is the /week/{n}/visibility response: the §3
// vantage-point aggregates served straight from the snapshot's
// visibility product — no re-analysis of the capture.
type VisibilitySummary struct {
	Week        int    `json:"week"`
	ObservedIPs int    `json:"observed_ips"`
	ASes        int    `json:"ases"`
	Prefixes    int    `json:"prefixes"`
	Countries   int    `json:"countries"`
	TotalBytes  uint64 `json:"total_bytes"`
	// ByIPs and ByBytes are the top-k countries under each ranking.
	ByIPs   []CountryShare `json:"by_ips"`
	ByBytes []CountryShare `json:"by_bytes"`
}

// VisibilityView renders a week's visibility product, resolving
// countries through the environment's entity table. It is exported so
// golden tests can compare a served response byte for byte against a
// directly analyzed aggregator.
func VisibilityView(env *pipeline.Env, wk *snapshot.Opened, k int) (VisibilitySummary, error) {
	full, err := rankVisibility(env, wk)
	if err != nil {
		return VisibilitySummary{}, err
	}
	return full.top(k), nil
}

// top is the summary with both country rankings cut to their first k.
func (v VisibilitySummary) top(k int) VisibilitySummary {
	v.ByIPs, v.ByBytes = topK(v.ByIPs, k), topK(v.ByBytes, k)
	return v
}

// rankVisibility is VisibilityView over every country: the one pass
// that rebuilds the aggregator, with ByIPs and ByBytes total orders
// (count or bytes descending, then country code).
func rankVisibility(env *pipeline.Env, wk *snapshot.Opened) (VisibilitySummary, error) {
	vp, err := wk.Visibility()
	if err != nil {
		return VisibilitySummary{}, err
	}
	if vp == nil {
		return VisibilitySummary{}, fmt.Errorf("%w: visibility (week %d)", ErrNoProduct, wk.Header().Week)
	}
	agg := vp.Aggregator(env.EntityTable())
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
	}, nil
}

func (s *Server) handleVisibility(w http.ResponseWriter, r *http.Request) {
	v, k, ok := s.viewK(w, r)
	if !ok {
		return
	}
	full, err := v.vis.get(s.m.ViewBuilds, func() (VisibilitySummary, error) {
		return rankVisibility(s.store.Env(), v.snap)
	})
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, full.top(k))
}

// LinkEntry is one row of the /week/{n}/links response: one
// (ingress member, egress member) pair of the peering fabric with its
// aggregated traffic.
type LinkEntry struct {
	In      int32  `json:"in"`
	Out     int32  `json:"out"`
	Bytes   uint64 `json:"bytes"`
	Samples uint64 `json:"samples"`
}

// TopLinks renders the k heaviest member-pair links of a week's flow
// product, bytes descending then (in, out) ascending.
func TopLinks(wk *snapshot.Opened, k int) ([]LinkEntry, error) {
	lp, err := linksOf(wk)
	if err != nil {
		return nil, err
	}
	return renderLinks(lp.TopMemberLinks(k)), nil
}

// linksOf is the week's flow product: ErrNoProduct when it has none,
// a snapshot error when its section does not decode.
func linksOf(wk *snapshot.Opened) (*analysis.LinksProduct, error) {
	lp, err := wk.Links()
	if err == nil && lp == nil {
		err = fmt.Errorf("%w: links (week %d)", ErrNoProduct, wk.Header().Week)
	}
	return lp, err
}

func renderLinks(top []analysis.MemberLink) []LinkEntry {
	out := make([]LinkEntry, len(top))
	for i, ml := range top {
		out[i] = LinkEntry{In: ml.In, Out: ml.Out, Bytes: ml.Bytes, Samples: ml.Samples}
	}
	return out
}

func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) {
	v, k, ok := s.viewK(w, r)
	if !ok {
		return
	}
	ranked, err := v.links.get(s.m.ViewBuilds, func() ([]analysis.MemberLink, error) {
		lp, err := linksOf(v.snap)
		if err != nil {
			return nil, err
		}
		return lp.RankedMemberLinks(), nil
	})
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, renderLinks(topK(ranked, k)))
}

// ChurnWeek is one row of the /churn longitudinal series. A gap row
// (Gap true) holds the calendar place of a quarantined week: its counts
// are zero, the pools were not advanced past it, and Streak restarts
// after it — consumers that require uninterrupted coverage filter on
// streak, consumers that tolerate gaps use observed_weeks.
type ChurnWeek struct {
	Week          int       `json:"week"`
	IPs           [3]int    `json:"ips"`
	Bytes         [3]uint64 `json:"bytes"`
	ASes          [3]int    `json:"ases"`
	TotalASes     int       `json:"total_ases"`
	TotalPrefixes int       `json:"total_prefixes"`
	UnresolvedIPs int       `json:"unresolved_ips"`
	HTTPSIPs      int       `json:"https_ips"`
	HTTPSBytes    uint64    `json:"https_bytes"`
	TotalBytes    uint64    `json:"total_bytes"`
	EstLoss       float64   `json:"est_loss"`
	Gap           bool      `json:"gap,omitempty"`
	ObservedWeeks int       `json:"observed_weeks"`
	Streak        int       `json:"streak"`
}

// ChurnSeries computes the longitudinal churn series from per-week
// results, in chronological order (pool order: stable, recurrent, new).
// weeks and snaps are parallel; a nil week marks a gap week (quarantined
// or otherwise unobserved) that holds its place in the calendar without
// advancing the pools. Each week's full result is built if it was not.
func ChurnSeries(env *pipeline.Env, weeks []int, snaps []*snapshot.Opened) ([]ChurnWeek, error) {
	if len(weeks) != len(snaps) {
		return nil, fmt.Errorf("serve: churn series: %d weeks, %d snapshots", len(weeks), len(snaps))
	}
	tracker := churn.NewTrackerWith(env.EntityTable())
	for i, snap := range snaps {
		if snap == nil {
			if err := tracker.AddGap(weeks[i]); err != nil {
				return nil, err
			}
			continue
		}
		if err := tracker.Add(env.Observation(snap.Result())); err != nil {
			return nil, err
		}
	}
	computed := tracker.Compute()
	out := make([]ChurnWeek, len(computed))
	for i := range computed {
		wc := &computed[i]
		out[i] = ChurnWeek{
			Week:          wc.Week,
			IPs:           wc.IPs,
			Bytes:         wc.Bytes,
			ASes:          wc.ASes,
			TotalASes:     wc.TotalASes,
			TotalPrefixes: wc.TotalPrefixes,
			UnresolvedIPs: wc.UnresolvedIPs,
			HTTPSIPs:      wc.HTTPSIPs,
			HTTPSBytes:    wc.HTTPSBytes,
			TotalBytes:    wc.TotalBytes,
			EstLoss:       wc.EstLoss,
			Gap:           wc.Gap,
			ObservedWeeks: wc.ObservedWeeks,
			Streak:        wc.Streak,
		}
	}
	return out, nil
}

// handleChurn serves the longitudinal series. Quarantined weeks become
// explicit gap rows rather than failing the whole series — a degraded
// campaign still answers longitudinal questions over the weeks it has.
//
// Every week is still resolved through the cache, so the hit/miss
// counters and the LRU order mean what they always did; what is
// memoized is the tracker run and the rendering, keyed by which loads
// the series was computed from.
func (s *Server) handleChurn(w http.ResponseWriter, r *http.Request) {
	weeks := s.store.Weeks()
	gens := make([]uint64, len(weeks))
	snaps := make([]*snapshot.Opened, len(weeks))
	for i, wk := range weeks {
		if s.store.IsQuarantined(wk) {
			continue // a gap: generation 0, nil snapshot
		}
		v, err := s.cache.Get(r.Context(), wk)
		if err != nil {
			fail(w, err)
			return
		}
		gens[i], snaps[i] = v.gen, v.snap
	}
	body, err := s.churn.get(gens, func() ([]byte, error) {
		s.m.ChurnBuilds.Inc()
		series, err := ChurnSeries(s.store.Env(), weeks, snaps)
		if err != nil {
			return nil, err
		}
		return renderJSON(series)
	})
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, body)
}
