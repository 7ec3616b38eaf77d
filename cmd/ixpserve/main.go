// Command ixpserve serves a mined measurement campaign over HTTP: it
// answers per-week summary, top-k server/AS, visibility
// (/week/{n}/visibility), peering-link flow (/week/{n}/links) and
// longitudinal churn queries from the week snapshots ixpmine wrote,
// behind a bounded in-memory cache with single-flight deduplication, a
// per-request timeout, and load shedding past the in-flight limit.
//
// It reads only the manifest, the supervise journal and the snapshots:
// no world is rebuilt and no capture is analyzed. Each snapshot carries
// the origin AS, prefix and country of every IP it mentions, so the AS,
// visibility and churn answers need nothing else. A week whose snapshot
// is missing, stale against the manifest, or written by an older build
// without that attributes section answers 503 ("not mined by this
// build: run ixpmine"); one ixpmine run over an older campaign upgrades
// its snapshots in place. A week mined under a narrowed analyzer
// registry answers 404 for the products it lacks. Loss budgets belong
// to ixpmine: a week it quarantined answers 422 here.
//
// Usage:
//
//	ixpserve -in capture/ [-addr :8437] [-cache-weeks 32]
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, open
// requests finish (bounded by -drain), and in-flight snapshot loads are
// cancelled and awaited.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ixplens/internal/obs"
	"ixplens/internal/serve"
)

// defaultTimeout is the -timeout default.
const defaultTimeout = 2 * time.Minute

func main() {
	var (
		in         = flag.String("in", "capture", "campaign directory mined by ixpmine")
		addr       = flag.String("addr", ":8437", "HTTP listen address")
		debug      = flag.String("debug-addr", "", "serve expvar+pprof on this address (empty = off)")
		cacheWeeks = flag.Int("cache-weeks", 32, "maximum opened weeks held in memory")
		inflight   = flag.Int("max-inflight", 64, "maximum concurrently handled requests; excess load is shed with 503")
		timeout    = flag.Duration("timeout", defaultTimeout, "per-request deadline, including any snapshot load it triggers (negative = none)")
		topk       = flag.Int("topk", 10, "default k for the top-k endpoints")
		drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown budget for open requests")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *in, *addr, *debug, serve.Config{
		CacheWeeks:  *cacheWeeks,
		MaxInFlight: *inflight,
		Timeout:     *timeout,
		TopK:        *topk,
	}, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "ixpserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, dir, addr, debugAddr string, cfg serve.Config, drain time.Duration) error {
	// OpenStore reads the manifest and the supervise journal: weeks the
	// runner quarantined are served as explicit holes (422, /healthz
	// degraded, /churn gap rows).
	store, err := serve.OpenStore(dir, false)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	if debugAddr != "" {
		dbgAddr, closeDebug, err := obs.Serve(debugAddr, reg)
		if err != nil {
			return err
		}
		defer closeDebug()
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/debug/vars\n", dbgAddr)
	}
	if q := store.Quarantined(); len(q) > 0 {
		fmt.Fprintf(os.Stderr, "degraded campaign: weeks %v quarantined by the supervisor\n", q)
	}
	s := serve.New(store, cfg, reg)
	defer s.Close()

	// The per-request -timeout only starts inside ServeHTTP. Bound what
	// comes before it too, by the same figure: a client that never
	// finishes its headers, or sits on an idle keep-alive connection,
	// must not hold a connection forever. A negative -timeout lifts the
	// deadline on requests, not on sockets, so it falls back to the
	// flag's default here.
	connTimeout := cfg.Timeout
	if connTimeout <= 0 {
		connTimeout = defaultTimeout
	}
	srv := &http.Server{Addr: addr, Handler: s, ReadHeaderTimeout: connTimeout, IdleTimeout: connTimeout}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "serving %d weeks from %s on %s\n", len(store.Weeks()), dir, addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let open requests finish within
	// the budget, then cancel whatever loads are still running (the
	// deferred s.Close waits for them).
	fmt.Fprintln(os.Stderr, "shutting down...")
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
