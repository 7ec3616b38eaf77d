// Package serve turns an analyzed measurement campaign into a queryable
// HTTP service — the missing serving path between the 17-week study and
// its downstream consumers (longitudinal IXP series, vantage-point
// aggregates). It is stdlib-only, like the rest of the stack.
//
// A request for a week is answered from the bounded in-memory cache, or
// else from the week's on-disk snapshot (milliseconds; single-flighted,
// so concurrent requests for the same cold week open it once). The
// server never analyzes a capture and holds no world: each snapshot
// carries the attributes (origin AS, prefix, country) of every IP it
// mentions, and a week whose snapshot is missing, stale or from a build
// that wrote no attributes answers 503 until ixpmine has mined it. The
// handler enforces a per-request timeout and a bounded in-flight limit
// that sheds excess load with 503 instead of queueing unboundedly;
// every stage is instrumented through internal/obs.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"ixplens/internal/analysis"
	"ixplens/internal/core/churn"
	"ixplens/internal/core/webserver"
	"ixplens/internal/obs"
	"ixplens/internal/packet"
	"ixplens/internal/routing"
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
	// Timeout bounds one request, including any snapshot load it
	// triggers (default 120s; 0 keeps the default, negative disables).
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

// Close cancels in-flight loads and waits for them — the drain step of
// a graceful shutdown, after the HTTP listener stops accepting.
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
		// Slots free up as fast as snapshot loads finish: milliseconds.
		w.Header().Set("Retry-After", "1")
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

// ErrNoProduct marks a request for an analyzer product the week's
// snapshot does not carry (e.g. /week/{n}/links on a week mined under a
// webserver-only registry). Test with errors.Is.
var ErrNoProduct = errors.New("serve: analyzer product not available")

// fail answers a load error with its HTTP status and a fixed public
// text. The error itself can name server-side paths, so it goes to the
// server's log, never to the client.
func fail(w http.ResponseWriter, err error) {
	status, text := failure(err)
	log.Printf("serve: answered %d: %v", status, err)
	http.Error(w, text, status)
}

// failure maps a load error onto an HTTP status and the public text
// answered with it.
func failure(err error) (int, string) {
	switch {
	case errors.Is(err, ErrUnknownWeek):
		return http.StatusNotFound, "week not in campaign"
	case errors.Is(err, ErrNoProduct):
		return http.StatusNotFound, "analyzer product not available for this week"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "request timed out"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "request abandoned or server draining"
	case errors.Is(err, ErrNotMined), errors.Is(err, snapshot.ErrReread):
		// The server is fine and the week is known, but there is no
		// snapshot (any more) to answer from: try again after ixpmine.
		return http.StatusServiceUnavailable, ErrNotMined.Error()
	case errors.Is(err, ErrQuarantinedWeek):
		// The week exists in the campaign calendar but its data never
		// passed the pipeline: not a 404 (the week is known), not a 500
		// (the server is fine) — the entity is simply unprocessable.
		return http.StatusUnprocessableEntity, "week quarantined by campaign supervisor"
	case errors.Is(err, snapshot.ErrFormat), errors.Is(err, snapshot.ErrSectionVersion),
		errors.Is(err, snapshot.ErrChecksum):
		// A product section that verified at load but does not decode on
		// first use, or whose bytes changed on disk since: the week is
		// known and the server is fine, but this product of it cannot be
		// served.
		return http.StatusUnprocessableEntity, "snapshot section unreadable: run ixpmine"
	default:
		return http.StatusInternalServerError, "internal server error"
	}
}

// failView answers a failed view of a cached week. A product section
// that could not be read back from disk, or changed there, means the
// file under the cached week is not the one it opened: the week is
// dropped from the cache, so the next request opens the file again.
func (s *Server) failView(w http.ResponseWriter, v *weekView, err error) {
	if diskChanged(err) {
		s.cache.Drop(v.snap.Header().Week, v)
	}
	fail(w, err)
}

// diskChanged reports whether err is a product section's re-read
// failure: the file is gone, shorter, or holds other bytes.
func diskChanged(err error) bool {
	return errors.Is(err, snapshot.ErrReread) || errors.Is(err, snapshot.ErrChecksum)
}

// writeJSON emits a deterministic JSON document: marshal then a single
// trailing newline. Determinism (same value → same bytes) is part of
// the serving contract — the golden tests compare responses byte for
// byte against directly analyzed results.
func writeJSON(w http.ResponseWriter, v interface{}) {
	body, err := renderJSON(v)
	if err != nil {
		fail(w, err)
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

// rankASes aggregates a week's server traffic by origin AS, as the
// snapshot's attributes section recorded it, and ranks every AS, bytes
// descending then ASN ascending; /week/{n}/ases serves its first k.
// Unresolved IPs (ASN 0) are excluded — a lookup failure is not an AS.
// It reads the server index and the attributes: an IP and its bytes per
// server, the origin AS per IP.
func rankASes(wk *snapshot.Opened) ([]ASEntry, error) {
	attrs, err := weekAttributes(wk)
	if err != nil {
		return nil, err
	}
	type agg struct {
		servers int
		bytes   uint64
	}
	byAS := make(map[uint32]*agg)
	for _, srv := range wk.Servers() {
		a, _ := attrs.Find(srv.IP)
		if a.ASN == 0 {
			continue
		}
		g := byAS[a.ASN]
		if g == nil {
			g = &agg{}
			byAS[a.ASN] = g
		}
		g.servers++
		g.bytes += srv.Bytes
	}
	out := make([]ASEntry, 0, len(byAS))
	for asn, g := range byAS {
		out = append(out, ASEntry{ASN: asn, Servers: g.servers, Bytes: g.bytes})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].ASN < out[j].ASN
	})
	return out, nil
}

// weekAttributes is the week's attributes section; a week without one was
// not mined by this build.
func weekAttributes(wk *snapshot.Opened) (*analysis.AttributesProduct, error) {
	attrs, err := wk.Attributes()
	if err == nil && attrs == nil {
		err = fmt.Errorf("%w: week %d has no attributes", ErrNotMined, wk.Header().Week)
	}
	return attrs, err
}

func (s *Server) handleTopASes(w http.ResponseWriter, r *http.Request) {
	v, k, ok := s.viewK(w, r)
	if !ok {
		return
	}
	ranked, err := v.ases.get(s.m.ViewBuilds, func() ([]ASEntry, error) {
		return rankASes(v.snap)
	})
	if err != nil {
		s.failView(w, v, err)
		return
	}
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

// top is the summary with both country rankings cut to their first k.
func (v VisibilitySummary) top(k int) VisibilitySummary {
	v.ByIPs, v.ByBytes = topK(v.ByIPs, k), topK(v.ByBytes, k)
	return v
}

// rankVisibility renders a week's visibility product over every country,
// its IPs resolved through the snapshot's attributes section;
// /week/{n}/visibility serves its top(k). It is one pass over the
// per-IP product beside the attributes (both in IP order), counting as
// visibility.Aggregator.Summarize and TopCountries count — the AS,
// prefix and country tallies over routed IPs only — with ByIPs and
// ByBytes total orders (count or bytes descending, then country code).
func rankVisibility(wk *snapshot.Opened) (VisibilitySummary, error) {
	vp, err := wk.Visibility()
	if err != nil {
		return VisibilitySummary{}, err
	}
	if vp == nil {
		return VisibilitySummary{}, fmt.Errorf("%w: visibility (week %d)", ErrNoProduct, wk.Header().Week)
	}
	attrs, err := weekAttributes(wk)
	if err != nil {
		return VisibilitySummary{}, err
	}
	sum := VisibilitySummary{Week: wk.Header().Week, ObservedIPs: len(vp.PerIP)}
	ases := make(map[uint32]bool)
	prefixes := make(map[routing.Prefix]bool)
	byCountry := make(map[string]*CountryShare)
	j := 0
	for _, e := range vp.PerIP {
		sum.TotalBytes += e.Bytes
		for j < attrs.Len() && attrs.IP(j) < e.IP {
			j++
		}
		if j == attrs.Len() || attrs.IP(j) != e.IP {
			continue
		}
		a := attrs.At(j)
		if a.ASN == 0 {
			continue // unrouted: no AS, prefix or country counted
		}
		ases[a.ASN] = true
		prefixes[a.Prefix] = true
		if a.Country == "" {
			continue
		}
		cs := byCountry[a.Country]
		if cs == nil {
			cs = &CountryShare{Country: a.Country}
			byCountry[a.Country] = cs
		}
		cs.IPs++
		cs.Bytes += e.Bytes
	}
	sum.ASes, sum.Prefixes, sum.Countries = len(ases), len(prefixes), len(byCountry)
	for _, cs := range byCountry {
		sum.ByIPs = append(sum.ByIPs, *cs)
	}
	sum.ByBytes = slices.Clone(sum.ByIPs)
	rank := func(rows []CountryShare, key func(*CountryShare) uint64) {
		sort.Slice(rows, func(i, j int) bool {
			if ki, kj := key(&rows[i]), key(&rows[j]); ki != kj {
				return ki > kj
			}
			return rows[i].Country < rows[j].Country
		})
	}
	rank(sum.ByIPs, func(c *CountryShare) uint64 { return uint64(c.IPs) })
	rank(sum.ByBytes, func(c *CountryShare) uint64 { return c.Bytes })
	return sum, nil
}

func (s *Server) handleVisibility(w http.ResponseWriter, r *http.Request) {
	v, k, ok := s.viewK(w, r)
	if !ok {
		return
	}
	full, err := v.vis.get(s.m.ViewBuilds, func() (VisibilitySummary, error) {
		return rankVisibility(v.snap)
	})
	if err != nil {
		s.failView(w, v, err)
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
		s.failView(w, v, err)
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
// snapshots, in chronological order (pool order: stable, recurrent,
// new). weeks and snaps are parallel; a nil week marks a gap week
// (quarantined or otherwise unobserved) that holds its place in the
// calendar without advancing the pools. Each week is observed from its
// server index and attributes section; no result is built.
func ChurnSeries(weeks []int, snaps []*snapshot.Opened) ([]ChurnWeek, error) {
	if len(weeks) != len(snaps) {
		return nil, fmt.Errorf("serve: churn series: %d weeks, %d snapshots", len(weeks), len(snaps))
	}
	tracker := churn.NewTracker()
	for i, snap := range snaps {
		if snap == nil {
			if err := tracker.AddGap(weeks[i]); err != nil {
				return nil, err
			}
			continue
		}
		obs, err := observation(snap)
		if err != nil {
			return nil, err
		}
		if err := tracker.Add(obs); err != nil {
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

// observation is a week's churn observation: every server's bytes and
// HTTPS flag from the index, its origin AS, prefix and region from the
// attributes section. The serving member is left unknown (-1); the
// series does not read it.
func observation(wk *snapshot.Opened) (churn.WeekObservation, error) {
	attrs, err := weekAttributes(wk)
	if err != nil {
		return churn.WeekObservation{}, err
	}
	hdr, refs := wk.Header(), wk.Servers()
	obs := churn.WeekObservation{
		Week:    hdr.Week,
		Servers: make(map[packet.IPv4Addr]churn.ServerObs, len(refs)),
		EstLoss: hdr.EstLoss,
	}
	for _, ref := range refs {
		a, _ := attrs.Find(ref.IP)
		obs.Servers[ref.IP] = a.ChurnObs(ref.Bytes, ref.HTTPS(), -1)
	}
	return obs, nil
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
	views := make([]*weekView, len(weeks))
	for i, wk := range weeks {
		if s.store.IsQuarantined(wk) {
			continue // a gap: generation 0, nil snapshot
		}
		v, err := s.cache.Get(r.Context(), wk)
		if err != nil {
			fail(w, err)
			return
		}
		gens[i], snaps[i], views[i] = v.gen, v.snap, v
	}
	body, err := s.churn.get(gens, func() ([]byte, error) {
		s.m.ChurnBuilds.Inc()
		series, err := ChurnSeries(weeks, snaps)
		if err != nil {
			return nil, err
		}
		return renderJSON(series)
	})
	if err != nil {
		if diskChanged(err) {
			for i, snap := range snaps {
				if snap == nil {
					continue
				}
				if _, aerr := snap.Attributes(); diskChanged(aerr) {
					s.cache.Drop(weeks[i], views[i])
				}
			}
		}
		fail(w, err)
		return
	}
	writeBody(w, body)
}
