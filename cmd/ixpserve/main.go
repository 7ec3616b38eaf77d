// Command ixpserve serves an analyzed measurement campaign over HTTP:
// it rebuilds the measurement substrates from the capture manifest and
// answers per-week summary, top-k server/AS, visibility
// (/week/{n}/visibility), peering-link flow (/week/{n}/links) and
// longitudinal churn queries. Weeks are analyzed lazily on first
// request — from the on-disk snapshot when one exists and carries every
// product the analyzer registry requires (ixpmine always writes them;
// -write-snapshots persists them here too), from the raw capture
// otherwise — behind a bounded in-memory cache with single-flight
// deduplication, a per-request timeout, and load shedding past the
// in-flight limit. A week mined under a narrowed registry answers 404
// for the missing products instead of recomputing them. Loss budgets
// belong to ixpmine: a week it quarantined answers 422 here.
//
// Usage:
//
//	ixpserve -in capture/ [-addr :8437] [-write-snapshots]
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, open
// requests finish (bounded by -drain), and in-flight analyses are
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
		in         = flag.String("in", "capture", "capture directory written by ixpgen")
		addr       = flag.String("addr", ":8437", "HTTP listen address")
		debug      = flag.String("debug-addr", "", "serve expvar+pprof on this address (empty = off)")
		cacheWeeks = flag.Int("cache-weeks", 32, "maximum analyzed weeks held in memory")
		inflight   = flag.Int("max-inflight", 64, "maximum concurrently handled requests; excess load is shed with 503")
		timeout    = flag.Duration("timeout", defaultTimeout, "per-request deadline, including any analysis it triggers (negative = none)")
		topk       = flag.Int("topk", 10, "default k for the top-k endpoints")
		writeSnaps = flag.Bool("write-snapshots", false, "persist a snapshot after each full analysis, so later requests (and restarts) skip it")
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
	}, *writeSnaps, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "ixpserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, dir, addr, debugAddr string, cfg serve.Config, writeSnaps bool, drain time.Duration) error {
	// OpenStore rebuilds the substrates from the manifest and reads the
	// supervise journal: weeks the runner quarantined are served as
	// explicit holes (422, /healthz degraded, /churn gap rows) rather
	// than re-analyzed bad data.
	store, err := serve.OpenStore(dir, writeSnaps)
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
	env := store.Env()
	env.Instrument(reg)
	fmt.Fprintf(os.Stderr, "substrates rebuilt: %s\n", env)
	if q := store.Quarantined(); len(q) > 0 {
		fmt.Fprintf(os.Stderr, "degraded campaign: weeks %v quarantined by the supervisor\n", q)
	}
	s := serve.New(store, cfg, reg)
	defer s.Close()

	// The per-request -timeout only starts inside ServeHTTP. Bound what
	// comes before it too, by the same figure: a client that never
	// finishes its headers, or sits on an idle keep-alive connection,
	// must not hold a connection forever. A negative -timeout lifts the
	// deadline on analyses, not on sockets, so it falls back to the
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
	// the budget, then cancel whatever analyses are still running (the
	// deferred s.Close waits for them).
	fmt.Fprintln(os.Stderr, "shutting down...")
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
