// Package pipeline wires the full measurement stack together: world →
// traffic → sFlow capture → dissection → server identification →
// meta-data → clustering. It is the composition layer the command-line
// tools, the examples and the experiment harness all build on.
//
// An Env has two halves. The generator half (World, DNS, Fabric,
// Crawler, Gen) renders a campaign's traffic. The analysis half,
// Inputs, is every data set the analysis consults — RIB, geo DB, member
// ports, the HTTPS crawl, DNS — and the analysis reads nothing else.
// NewEnv builds both from a generated world; NewInputsEnv takes Inputs
// as given (ixpmine reads them from the campaign's inputs file) and
// builds the generator half only when traffic must be generated.
//
// The layer is built to degrade, not die: every analysis entry point
// takes a context and unwinds within roughly one datagram batch of
// cancellation; an Env may carry a faultline.Config that replays
// production failure modes (loss, duplication, reordering, corruption,
// worker panics) deterministically; each week's estimated datagram loss
// — measured from sFlow sequence gaps exactly as a real collector would
// — is attached to the week's results as a data-quality annotation and,
// when MaxLoss is set, enforced as an abort threshold.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"ixplens/internal/alexa"
	"ixplens/internal/analysis"
	"ixplens/internal/certsim"
	"ixplens/internal/core/churn"
	"ixplens/internal/core/cluster"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/metadata"
	"ixplens/internal/core/webserver"
	"ixplens/internal/dnssim"
	"ixplens/internal/entity"
	"ixplens/internal/faultline"
	"ixplens/internal/ixp"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/sflow"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

// ErrLossExceeded marks a week aborted because its estimated datagram
// loss crossed Env.MaxLoss. Test with errors.Is.
var ErrLossExceeded = errors.New("pipeline: estimated datagram loss exceeds configured maximum")

// WeekError attributes one failed week's error to its ISO week, so a
// multi-week caller can tell which slot of the campaign degraded.
type WeekError struct {
	Week int
	Err  error
}

// Error implements error.
func (e *WeekError) Error() string {
	return fmt.Sprintf("week %d: %v", e.Week, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *WeekError) Unwrap() error { return e.Err }

// WeekErrors is the typed per-week error set TrackWeeks returns when
// some (but not necessarily all) weeks failed. It unwraps to every
// member, so errors.Is(err, ErrLossExceeded) answers "did any week
// exceed its loss budget" and errors.As(err, *(*WeekError)) yields the
// first failed week.
type WeekErrors []*WeekError

// Error implements error.
func (e WeekErrors) Error() string {
	switch len(e) {
	case 0:
		return "pipeline: no week errors"
	case 1:
		return fmt.Sprintf("pipeline: 1 week failed: %v", e[0])
	default:
		return fmt.Sprintf("pipeline: %d weeks failed (first: %v)", len(e), e[0])
	}
}

// Unwrap exposes the member errors to the errors package's tree walk.
func (e WeekErrors) Unwrap() []error {
	out := make([]error, len(e))
	for i, we := range e {
		out[i] = we
	}
	return out
}

// Weeks lists the failed ISO weeks in chronological order.
func (e WeekErrors) Weeks() []int {
	out := make([]int, len(e))
	for i, we := range e {
		out[i] = we.Week
	}
	return out
}

// Env is one campaign's measurement stack. Its generator half — World,
// DNS, Fabric, Crawler and Gen — is used only by EachDatagram (and so
// every capture write) and TrackWeeks; AnalysisContext, EntityTable,
// Organizations and the classifier's member resolver read only its
// analysis half, Inputs.
type Env struct {
	World   *netmodel.World
	DNS     *dnssim.DB
	Fabric  *ixp.Fabric
	Crawler *certsim.Crawler
	Gen     *traffic.Generator
	Opts    traffic.Options
	// Config is the campaign's world configuration: its study weeks and
	// seed, and the recipe the generator half is built from.
	Config netmodel.Config
	// Inputs is the analysis half.
	Inputs Inputs
	// M is the observability bundle; nil (the default) runs the whole
	// pipeline uninstrumented. Attach one with Instrument.
	M *Metrics
	// Faults, when non-nil and active, threads every captured or
	// streamed week through a deterministic fault injector (seeded with
	// Faults.Seed, salted with the ISO week).
	Faults *faultline.Config
	// MaxLoss, when positive, is the largest estimated per-week datagram
	// loss fraction the analysis tolerates; a week above it fails with
	// an error wrapping ErrLossExceeded.
	MaxLoss float64
	// Analyzers selects which analyzers AnalyzeWeek (and the capture /
	// supervise / serve layers above it) feed from the single fused
	// decode pass. Nil runs the full default registry.
	Analyzers *analysis.Registry
	// FS is the filesystem seam every persistence path above this Env
	// goes through — capture files, manifests, snapshots, the supervisor
	// journal. Nil means the real disk (vfs.Default); a faultline.FS here
	// subjects the whole disk tier to seeded storage chaos.
	FS vfs.FS

	// lazy builds the generator half of an Env from NewInputsEnv; nil
	// when the half was built with the Env.
	lazy *lazyHalf
}

// lazyHalf builds a generator half once, on first use.
type lazyHalf struct {
	once  sync.Once
	build func() (*Env, error)
	err   error
}

// NewEnv generates a world and wires all substrates: both halves, the
// analysis half as views of the world.
func NewEnv(cfg netmodel.Config, opts traffic.Options) (*Env, error) {
	w, err := netmodel.Generate(cfg)
	if err != nil {
		return nil, err
	}
	// The RIB and geo DB are cached lazily and unsynchronized: build
	// them now, so concurrent analysis runs only read them.
	w.RIB()
	w.GeoDB()
	dns := dnssim.New(w)
	fabric := ixp.NewFabric(w)
	crawler := certsim.NewCrawler(w, dns)
	return &Env{
		World:   w,
		DNS:     dns,
		Fabric:  fabric,
		Crawler: crawler,
		Gen:     traffic.NewGenerator(w, dns, fabric, opts),
		Opts:    opts,
		Config:  cfg,
		Inputs:  WorldInputs(w, dns, fabric, crawler),
	}, nil
}

// NewInputsEnv returns an Env whose analysis half is in and whose
// generator half is left unbuilt: the first call that generates traffic
// builds it with build (normally NewEnv over cfg and opts) and adopts
// that Env's generator half. An Env that only analyzes never calls
// build.
func NewInputsEnv(cfg netmodel.Config, opts traffic.Options, in Inputs, build func() (*Env, error)) *Env {
	return &Env{Opts: opts, Config: cfg, Inputs: in, lazy: &lazyHalf{build: build}}
}

// generator builds the generator half if the Env was opened without it.
func (e *Env) generator() error {
	if e.lazy == nil {
		return nil
	}
	e.lazy.once.Do(func() {
		full, err := e.lazy.build()
		if err != nil {
			e.lazy.err = err
			return
		}
		e.World, e.DNS, e.Fabric, e.Crawler, e.Gen = full.World, full.DNS, full.Fabric, full.Crawler, full.Gen
	})
	return e.lazy.err
}

// EntityTable returns a new, empty entity table over the world's RIB
// and geo DB — a fresh one on every call, shared with nothing. Callers
// resolve a finished week's IPs through it.
func (e *Env) EntityTable() *entity.Table {
	return entity.NewTable(e.Inputs.RIB, e.Inputs.Geo)
}

// Registry returns the Env's analyzer registry, defaulting to every
// builtin analyzer.
func (e *Env) Registry() *analysis.Registry {
	if e.Analyzers != nil {
		return e.Analyzers
	}
	return analysis.Default()
}

// VFS returns the Env's filesystem seam, defaulting to the real disk.
func (e *Env) VFS() vfs.FS {
	if e.FS != nil {
		return e.FS
	}
	return vfs.Default
}

// AnalysisContext bundles the Env substrates the analyzers consume for
// one run, with a new entity table: runs share no mutable state. The
// table reports to the Env's entity metrics when it is instrumented.
func (e *Env) AnalysisContext() *analysis.Context {
	tab := e.EntityTable()
	tab.SetMetrics(e.M.EntityMetrics())
	return &analysis.Context{
		Entities: tab,
		Crawler:  e.Inputs.Crawler,
		Ident:    e.M.IdentifyMetrics(),
	}
}

// members returns the classifier's port resolver, wrapped with the
// fault injector's panic seam when one is configured.
func (e *Env) members() dissect.MemberResolver {
	if e.Faults.Active() && e.Faults.PanicAtLookup > 0 {
		return &faultline.PanickyResolver{Members: e.Inputs.Members, At: e.Faults.PanicAtLookup}
	}
	return e.Inputs.Members
}

// checkLoss turns a week's sequence-gap accounting into metrics and,
// when MaxLoss is set, an abort decision.
func (e *Env) checkLoss(isoWeek int, st sflow.SeqStats) (float64, error) {
	est := st.EstLoss()
	e.M.observeSeq(st)
	if e.MaxLoss > 0 && est > e.MaxLoss {
		return est, fmt.Errorf("week %d: estimated loss %.4f > max %.4f (%d gap datagrams): %w",
			isoWeek, est, e.MaxLoss, st.GapDatagrams, ErrLossExceeded)
	}
	return est, nil
}

// EachDatagram generates one week of traffic and hands every datagram
// the IXP collector exports to fn, in stream order: the Env's one
// generation sink, which every path that renders a week — the analysis
// driver, capture files, UDP export — goes through. The collector
// recycles its buffers, so fn must not retain a datagram (or anything
// it points to) past the call; Datagram.Clone copies one out.
// Configured faults sit between the collector and fn, with the
// injector's held-back datagrams flushed into fn at the end, so fn sees
// the degraded stream an unreliable network would have delivered.
// Generation is deterministic in (seed, ISO week): a second call yields
// the same datagrams. Cancelling ctx aborts within one datagram.
func (e *Env) EachDatagram(ctx context.Context, isoWeek int, fn func(*sflow.Datagram) error) (traffic.WeekStats, error) {
	if err := e.generator(); err != nil {
		return traffic.WeekStats{}, err
	}
	return e.generate(ctx, e.Gen, isoWeek, fn)
}

// generate is EachDatagram over an explicit generator (a Generator is
// not safe for concurrent use, so parallel callers each own one).
func (e *Env) generate(ctx context.Context, gen *traffic.Generator, isoWeek int, fn func(*sflow.Datagram) error) (traffic.WeekStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	base := func(d *sflow.Datagram) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(d)
	}
	sink := base
	var inj *faultline.Injector
	if e.Faults.Active() {
		inj = faultline.New(*e.Faults, uint64(isoWeek))
		sink = inj.Sink(base)
	}
	col := ixp.NewCollector(e.Fabric, e.Opts.SamplingRate, sink)
	col.SetMetrics(e.M.CollectorMetrics())
	// Every sink consumes the datagram within the call (the injector
	// clones what it holds back), so the collector can recycle buffers.
	col.SetBufferReuse(true)
	stats, err := gen.GenerateWeek(isoWeek, col)
	if err == nil && inj != nil {
		err = inj.Flush(base)
	}
	return stats, err
}

// Feed pushes one week's datagrams, in stream order, into emit and
// returns once the week is exhausted: nil for a complete stream, the
// first error otherwise (an error from emit included). A datagram is
// only valid for the duration of its emit call.
type Feed func(emit func(*sflow.Datagram) error) error

// AnalyzeFeed is the one week-level analysis driver: it runs every
// analyzer in the Env's registry over the datagrams feed pushes — ONE
// pass, classified as they arrive by a dissect.StreamProcessor of the
// given worker count — measures the week's datagram loss from sFlow
// sequence gaps exactly as a live collector would, and finishes the
// run. The generator (AnalyzeWeek) and capture files both feed it. The
// estimated loss fraction is recorded in the Env's metrics and stamped
// on the products' webserver result; a week whose loss crosses
// Env.MaxLoss fails with ErrLossExceeded. The returned counts are the
// dissection cascade's tallies, also alongside a feed error.
func (e *Env) AnalyzeFeed(ctx context.Context, isoWeek, workers int, feed Feed) (*analysis.Products, dissect.Counts, error) {
	return e.analyzeFeed(ctx, e.Registry(), e.AnalysisContext(), isoWeek, workers, feed)
}

// analyzeFeed is AnalyzeFeed for an explicit registry and analysis
// context.
func (e *Env) analyzeFeed(ctx context.Context, reg *analysis.Registry, actx *analysis.Context, isoWeek, workers int, feed Feed) (*analysis.Products, dissect.Counts, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	run := reg.NewRun(actx, workers)
	sp := dissect.NewShardedStreamProcessor(ctx, e.members(), workers, run.Observe, e.M.DissectMetrics())
	var seq sflow.SeqTracker
	err := feed(func(d *sflow.Datagram) error {
		seq.Observe(d)
		return sp.Add(d)
	})
	// Close drains in-flight batches even after an abort, so the worker
	// pool never leaks.
	counts := sp.Close()
	if err != nil {
		return nil, counts, err
	}
	est, err := e.checkLoss(isoWeek, seq.Stats())
	if err != nil {
		return nil, counts, err
	}
	prods, err := finishRun(run, isoWeek, est)
	return prods, counts, err
}

// streamWeek analyzes one week as gen generates it: the analysis
// driver fed by the generation sink. No datagram buffer is retained —
// the collector reuses its buffers and the processor holds O(batch)
// samples — so per-week memory is bounded regardless of world size.
func (e *Env) streamWeek(ctx context.Context, gen *traffic.Generator, reg *analysis.Registry, actx *analysis.Context, isoWeek, workers int) (*analysis.Products, dissect.Counts, traffic.WeekStats, error) {
	var stats traffic.WeekStats
	prods, counts, err := e.analyzeFeed(ctx, reg, actx, isoWeek, workers, func(emit func(*sflow.Datagram) error) error {
		var err error
		stats, err = e.generate(ctx, gen, isoWeek, emit)
		return err
	})
	return prods, counts, stats, err
}

// finishRun merges run's shards and stamps the week's estimated loss on
// the webserver result every product set must carry.
func finishRun(run *analysis.Run, isoWeek int, est float64) (*analysis.Products, error) {
	prods, err := run.Finish(isoWeek)
	if err != nil {
		return nil, err
	}
	res := prods.Webserver()
	if res == nil {
		return nil, errors.New("pipeline: analyzer registry lacks the webserver analyzer")
	}
	res.EstLoss = est
	return prods, nil
}

// Week is the fully analysed weekly snapshot.
type Week struct {
	ISOWeek  int
	Truth    traffic.WeekStats
	Counts   dissect.Counts
	Servers  *webserver.Result
	Metas    []metadata.ServerMeta
	Coverage metadata.Coverage
	Clusters *cluster.Result
	// Products holds every registered analyzer's finished product from
	// the week's single fused pass.
	Products *analysis.Products
	// Visibility and Links are the typed views of Products — nil when
	// the Env's registry omitted the analyzer.
	Visibility *analysis.VisibilityProduct
	Links      *analysis.LinksProduct
	// EstLoss is the week's estimated datagram loss fraction — the
	// capture's data-quality annotation, also carried on Servers.
	EstLoss float64
}

// AnalyzeWeek runs the complete per-week pipeline: ONE pass over the
// week's samples, classified as they are generated with bounded memory,
// feeds every analyzer in the Env's registry (identification,
// visibility, link flows, ...) simultaneously; then the §5 chain runs
// over the identified servers.
func (e *Env) AnalyzeWeek(ctx context.Context, isoWeek int) (*Week, error) {
	return e.analyzeWeek(ctx, isoWeek, dissect.DefaultWorkers())
}

// analyzeWeek is AnalyzeWeek with the classifier pool size made
// explicit, so tests can compare worker counts of the one driver
// whatever the host's GOMAXPROCS. Streamed weeks fan records into
// per-worker analyzer shards; each analyzer's deterministic merge
// inside Finish reproduces the serial pass's aggregates exactly (the
// golden-equivalence tests pin it).
func (e *Env) analyzeWeek(ctx context.Context, isoWeek, workers int) (*Week, error) {
	prods, counts, truth, err := e.streamWeek(ctx, e.Gen, e.Registry(), e.AnalysisContext(), isoWeek, workers)
	if err != nil {
		return nil, err
	}
	res := prods.Webserver()
	metas, cov, clusters := e.Organizations(res)
	return &Week{
		ISOWeek:    isoWeek,
		Truth:      truth,
		Counts:     counts,
		Servers:    res,
		Metas:      metas,
		Coverage:   cov,
		Clusters:   clusters,
		Products:   prods,
		Visibility: prods.Visibility(),
		Links:      prods.Links(),
		EstLoss:    res.EstLoss,
	}, nil
}

// Organizations runs the paper's §5 chain over one week's identified
// servers: meta-data collection (DNS, URIs, certificates), then the
// three-step clustering with the public DNS providers marked as shared
// infrastructure. A new entity table both memoizes the per-IP AS
// resolution and interns authority names for the vote bookkeeping.
func (e *Env) Organizations(res *webserver.Result) ([]metadata.ServerMeta, metadata.Coverage, *cluster.Result) {
	metas, cov := metadata.Collect(res, e.Inputs.DNS)
	opts := cluster.DefaultOptions()
	opts.KnownShared = e.Inputs.PublicDNS
	opts.Entities = e.EntityTable()
	return metas, cov, cluster.Run(metas, opts)
}

// Observation is analysis.Observation over res's servers resolved
// through a new entity table, for a result that arrives without its
// week's attributes.
func (e *Env) Observation(res *webserver.Result) churn.WeekObservation {
	ips := make([]packet.IPv4Addr, 0, len(res.Servers))
	for ip := range res.Servers {
		ips = append(ips, ip)
	}
	slices.Sort(ips)
	return analysis.Observation(res, analysis.AttributesOf(e.EntityTable(), ips))
}

// webserverOnly is TrackWeeks' registry: the churn series needs only
// the identification product. One analyzer cannot clash, so the
// registry error is always nil.
var webserverOnly, _ = analysis.NewRegistry(analysis.Webserver())

// TrackWeeks runs the light pipeline over every study week and returns
// the filled churn tracker plus per-week identification results and
// generator truth (the zero WeekStats for a failed week), so the series
// can be scored against the world that produced it. Each
// week is a webserver-only analysis run through the same streamWeek
// driver AnalyzeWeek streams with, over its own analysis context and
// entity table. Weeks are processed concurrently (they are independent:
// a generator per worker, a table per week, read-only substrates) and folded
// into the tracker in chronological order, joined by IP through each
// week's attributes. Cancelling ctx stops dispatching new weeks and
// unwinds in-flight ones within one datagram flush; the call then
// returns the context's error with no goroutines left behind.
//
// A week that fails (loss budget, fault injection) no longer aborts the
// campaign: it is recorded as a gap in the tracker, its slot in the
// results stays nil, and the call returns the tracker and results
// alongside a WeekErrors value naming every failed week. Callers that
// cannot tolerate partial coverage keep their old behaviour by treating
// any non-nil error as fatal; callers that can, errors.As into
// WeekErrors and continue with the gap-annotated series.
func (e *Env) TrackWeeks(ctx context.Context) (*churn.Tracker, []*webserver.Result, []traffic.WeekStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.generator(); err != nil {
		return nil, nil, nil, err
	}
	cfg := &e.Config

	// Pre-build the crawler's lazily cached server index so workers
	// only read it.
	if len(e.World.Servers) > 0 {
		e.World.ServerByIP(e.World.Servers[0].IP)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.Weeks {
		workers = cfg.Weeks
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]*webserver.Result, cfg.Weeks)
	observed := make([]churn.WeekObservation, cfg.Weeks)
	truths := make([]traffic.WeekStats, cfg.Weeks)
	errs := make([]error, cfg.Weeks)
	weekCh := make(chan int)
	var wg sync.WaitGroup
	var wallStart time.Time
	if e.M != nil {
		wallStart = time.Now()
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := traffic.NewGenerator(e.World, e.DNS, e.Fabric, e.Opts)
			for idx := range weekCh {
				if err := ctx.Err(); err != nil {
					errs[idx] = err
					continue
				}
				isoWeek := cfg.FirstWeek + idx
				var weekStart time.Time
				if e.M != nil {
					weekStart = time.Now()
				}
				// Weeks already run in parallel here; keep each week's
				// classifier on its worker (workers=1) to avoid
				// oversubscription.
				prods, _, truth, err := e.streamWeek(ctx, gen, webserverOnly, e.AnalysisContext(), isoWeek, 1)
				if err != nil {
					errs[idx] = err
					continue
				}
				results[idx], truths[idx] = prods.Webserver(), truth
				observed[idx] = analysis.Observation(results[idx], prods.Attributes())
				if e.M != nil {
					busy := time.Since(weekStart)
					e.M.WeekNanos.Observe(uint64(busy))
					e.M.Weeks.Inc()
					e.M.WorkerBusy.Add(uint64(busy))
				}
			}
		}()
	}
	for idx := 0; idx < cfg.Weeks; idx++ {
		select {
		case weekCh <- idx:
		case <-ctx.Done():
			// Stop feeding; in-flight weeks unwind via their sinks.
		}
		if ctx.Err() != nil {
			break
		}
	}
	close(weekCh)
	wg.Wait()
	if e.M != nil {
		// Utilization: the share of the worker pool's wall-clock capacity
		// that went into week work. 100% means every worker was busy the
		// whole run.
		if wall := time.Since(wallStart); wall > 0 {
			pct := 100 * float64(e.M.WorkerBusy.Value()) / (float64(wall) * float64(workers))
			e.M.Utilization.Set(int64(pct))
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}

	// A failed week becomes an explicit gap — the campaign degrades to
	// partial results plus a typed per-week error set instead of
	// aborting, so callers (the supervisor, ixpreport) decide how much
	// loss they tolerate.
	tracker := churn.NewTracker()
	var werrs WeekErrors
	for idx := 0; idx < cfg.Weeks; idx++ {
		isoWeek := cfg.FirstWeek + idx
		if errs[idx] != nil {
			werrs = append(werrs, &WeekError{Week: isoWeek, Err: errs[idx]})
			if err := tracker.AddGap(isoWeek); err != nil {
				return nil, nil, nil, err
			}
			continue
		}
		if err := tracker.Add(observed[idx]); err != nil {
			return nil, nil, nil, err
		}
	}
	if len(werrs) > 0 {
		return tracker, results, truths, werrs
	}
	return tracker, results, truths, nil
}

// AlexaList builds the week's top-site list from the generator half's
// DNS, which an Env from NewEnv has built.
func (e *Env) AlexaList(isoWeek int) *alexa.List {
	return alexa.Build(e.DNS, isoWeek, e.Config.Seed)
}

// String summarizes the environment from its analysis half.
func (e *Env) String() string {
	c := &e.Inputs.Counts
	return fmt.Sprintf("env{ASes=%d prefixes=%d orgs=%d servers=%d members=%d..%d}",
		c.ASes, c.Prefixes, c.Orgs, c.Servers, c.MembersStart, c.MembersEnd)
}
