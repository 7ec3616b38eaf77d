// Command ixpmine analyses a capture directory written by ixpgen under
// the supervised campaign runner: it reads the measurement substrates —
// RIB, geo DB, member ports, crawl and DNS answers — from the
// campaign's inputs file, then drives every study week through the
// capture→analyze→snapshot state machine with checkpointed resume —
// progress lands in an append-only journal next to the captures, so a
// killed run picks up from the last completed stage and a finished
// campaign re-runs as a verified no-op. Weeks written by ixpgen are
// adopted through their manifest digests, never rewritten; a damaged or
// missing week regenerates deterministically, and only then is the
// world generated from the manifest's seed. A missing, damaged or
// outdated inputs file is regenerated the same way before mining. Transient failures retry
// with exponential backoff under an optional per-stage watchdog;
// permanent ones (or an exhausted retry budget) quarantine the week,
// which downstream analysis carries as an explicit gap instead of
// failing the campaign.
//
// It prints the weekly summary plus a deep-dive for one focus week
// (filtering cascade, clustering, meta-data coverage, Fig. 7 link
// attribution). Every analyzer in the registry — identification,
// visibility, link flows — runs in the ONE decode pass over each
// capture; the deep-dive replays the persisted flow product instead of
// re-reading the capture file. -analyzers narrows the registry
// ("webserver,links"); "all" (the default) runs everything.
//
// A genuinely full disk parks the affected week in a capped-backoff
// wait (bounded by -storage-full-budget) instead of quarantining it.
// The -fault-fs-* flags route every campaign byte through a seeded
// fault-injecting filesystem — short writes, read errors, fsync lies,
// torn renames, an ENOSPC quota — for rehearsing exactly those paths.
//
// Usage:
//
//	ixpmine -in capture/ [-focus 45] [-analyzers all] [-retries 3] [-watchdog 5m] [-quarantine-limit 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ixplens/internal/analysis"
	"ixplens/internal/capture"
	"ixplens/internal/core/churn"
	"ixplens/internal/core/cluster"
	"ixplens/internal/faultline"
	"ixplens/internal/obs"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/snapshot"
	"ixplens/internal/supervise"
	"ixplens/internal/vfs"
)

func main() {
	var (
		in      = flag.String("in", "capture", "capture directory written by ixpgen")
		focus   = flag.Int("focus", 45, "ISO week for the deep-dive analysis")
		maxLoss = flag.Float64("max-loss", 0, "fail a week when its estimated datagram loss fraction exceeds this (0 = no limit); failed weeks retry, then quarantine")
		debug   = flag.String("debug-addr", "", "serve expvar+pprof on this address and print a metrics snapshot at exit (empty = off)")
		retries = flag.Int("retries", 3, "per-week attempt budget; the week quarantines after this many failed attempts")
		wdog    = flag.Duration("watchdog", 0, "per-stage deadline; a stage exceeding it is cancelled and retried as a transient failure (0 = none)")
		qlimit  = flag.Int("quarantine-limit", 0, "abort the campaign when more than this many weeks are quarantined (0 = any number degrades, never aborts)")
		retryQ  = flag.Bool("retry-quarantined", false, "re-open weeks a previous run quarantined instead of skipping them")
		anlz    = flag.String("analyzers", "all", "comma-separated analyzer names to run in the fused pass (webserver is always included); \"all\" runs every registered analyzer")
		fullB   = flag.Int("storage-full-budget", 0, "how many storage-full waits one week may accumulate before ENOSPC fails the attempt normally (0 = wait indefinitely)")

		fsSeed        = flag.Uint64("fault-fs-seed", 1, "storage fault injection seed")
		fsQuota       = flag.Int64("fault-fs-quota", 0, "write-byte budget before injected ENOSPC (0 = unlimited)")
		fsShortWrite  = flag.Float64("fault-fs-short-write", 0, "probability a write is cut short")
		fsReadErr     = flag.Float64("fault-fs-read-err", 0, "probability a read fails with an injected I/O error")
		fsSyncFail    = flag.Float64("fault-fs-sync-fail", 0, "probability fsync fails")
		fsSyncCorrupt = flag.Float64("fault-fs-sync-corrupt", 0, "probability fsync reports success but flips one stored bit")
		fsTornRename  = flag.Float64("fault-fs-torn-rename", 0, "probability an atomic rename tears (crash before the rename)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	scfg := supervise.Config{
		Retries:           *retries,
		Watchdog:          *wdog,
		QuarantineLimit:   *qlimit,
		RetryQuarantined:  *retryQ,
		StorageFullBudget: *fullB,
	}
	fscfg := faultline.FSConfig{
		Seed:        *fsSeed,
		Quota:       *fsQuota,
		ShortWrite:  *fsShortWrite,
		ReadErr:     *fsReadErr,
		SyncFail:    *fsSyncFail,
		SyncCorrupt: *fsSyncCorrupt,
		TornRename:  *fsTornRename,
	}
	if err := fscfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ixpmine:", err)
		os.Exit(1)
	}
	if err := run(ctx, *in, *focus, *maxLoss, *debug, *anlz, scfg, fscfg); err != nil {
		fmt.Fprintln(os.Stderr, "ixpmine:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, dir string, focus int, maxLoss float64, debugAddr, analyzers string, scfg supervise.Config, fscfg faultline.FSConfig) error {
	man, env, err := capture.Open(ctx, vfs.Default, dir)
	if err != nil {
		return err
	}
	if fscfg.Active() {
		env.FS = faultline.NewFS(vfs.OS{}, fscfg)
		fmt.Fprintf(os.Stderr, "storage fault injection: quota=%d short-write=%.3f read-err=%.3f sync-fail=%.3f sync-corrupt=%.3f torn-rename=%.3f seed=%d\n",
			fscfg.Quota, fscfg.ShortWrite, fscfg.ReadErr, fscfg.SyncFail, fscfg.SyncCorrupt, fscfg.TornRename, fscfg.Seed)
	}
	if env.Analyzers, err = analysis.Select(analyzers); err != nil {
		return err
	}
	var reg *obs.Registry
	if debugAddr != "" {
		reg = obs.NewRegistry()
		addr, closeDebug, err := obs.Serve(debugAddr, reg)
		if err != nil {
			return err
		}
		defer closeDebug()
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/debug/vars\n", addr)
		defer func() {
			fmt.Fprintln(os.Stderr, "\nmetrics snapshot:")
			reg.WriteText(os.Stderr)
		}()
	}
	env.Instrument(reg)
	env.MaxLoss = maxLoss
	fmt.Printf("substrates rebuilt: %s\n", env)
	if man.Anonymized {
		fmt.Println("note: capture is prefix-preserving anonymized; RIB/geo resolution is not meaningful")
	}
	fmt.Println()

	// The supervisor inherits the campaign's container identity so the
	// journal binds to the files ixpgen wrote.
	scfg.Capture.Compress = man.Compression
	sup, err := supervise.New(env, dir, scfg, reg)
	if err != nil {
		return err
	}
	defer sup.Close()

	tracker := churn.NewTracker()
	var hookErr error
	fmt.Println("week  samples  peering%  servers  https  loss%  server-traffic-share")
	sup.Hooks.OnWeek = func(ws supervise.WeekStatus, snap *snapshot.Snapshot) {
		if hookErr != nil {
			return
		}
		if ws.Status == "quarantined" {
			hookErr = tracker.AddGap(ws.Week)
			fmt.Printf("%4d  QUARANTINED after %d attempt(s): %v\n", ws.Week, ws.Attempts, ws.Err)
			return
		}
		res, counts := snap.Result, snap.Counts
		attrs, err := snap.Attributes()
		if err == nil && attrs == nil {
			err = fmt.Errorf("week %d: snapshot carries no attributes", ws.Week)
		}
		if err == nil {
			err = tracker.Add(analysis.Observation(res, attrs))
		}
		if err != nil {
			hookErr = err
			return
		}
		https := 0
		for _, s := range res.Servers {
			if s.HTTPS {
				https++
			}
		}
		// ServerBytes sums per-endpoint totals, so a sample counts once
		// per server endpoint; machine-to-machine samples count twice,
		// making this a slight overestimate of the >70% paper figure.
		peerBytes := counts.PeeringTCPBytes + counts.PeeringUDPBytes
		share := 0.0
		if peerBytes > 0 {
			share = float64(res.ServerBytes) / float64(peerBytes)
			if share > 1 {
				share = 1
			}
		}
		fmt.Printf("%4d  %7d  %7.2f%%  %7d  %5d  %5.2f  %.1f%%\n",
			ws.Week, counts.Total, 100*counts.PeeringShare(), len(res.Servers), https, 100*res.EstLoss, 100*share)

		if ws.Week == focus {
			deepDive(env, snap, man.Anonymized)
		}
	}

	start := time.Now()
	rep, err := sup.Run(ctx)
	if err != nil {
		return err
	}
	if hookErr != nil {
		return hookErr
	}
	fmt.Printf("\nsupervised run: %d done (%d resumed), %d quarantined in %v\n",
		rep.Completed, rep.Resumed, rep.Quarantined, time.Since(start).Round(time.Millisecond))
	if q := rep.QuarantinedWeeks(); len(q) > 0 {
		fmt.Printf("quarantined weeks: %v — the longitudinal series below carries them as gaps\n", q)
	}

	weeks := tracker.Compute()
	for i := len(weeks) - 1; i >= 0; i-- {
		last := &weeks[i]
		if last.Gap {
			continue
		}
		fmt.Printf("\nlongitudinal (week %d, %d observed): stable %.1f%%, recurrent %.1f%%, new %.1f%%; stable pool carries %.1f%% of traffic\n",
			last.Week, last.ObservedWeeks, 100*last.Share(churn.PoolStable), 100*last.Share(churn.PoolRecurrent),
			100*last.Share(churn.PoolNew), 100*last.ByteShare(churn.PoolStable))
		return nil
	}
	fmt.Println("\nno weeks observed — every week quarantined")
	return nil
}

// deepDive prints the focus week's cascade, meta-data, clustering and
// the Fig. 7 link attribution for the big deploy-CDN — all from the
// week's snapshot, with no second pass over the capture file: the link
// attribution replays the snapshot's persisted flow product.
func deepDive(env *pipeline.Env, snap *snapshot.Snapshot, anonymized bool) {
	res, counts := snap.Result, snap.Counts
	fmt.Printf("\n--- deep dive, week %d ---\n", res.Week)
	fmt.Printf("cascade: %d total | %d non-IPv4 | %d local | %d non-TCP/UDP | %d peering (%.2f%% TCP bytes)\n",
		counts.Total, counts.NonIPv4, counts.Local, counts.NonTCPUDP, counts.Peering(), 100*counts.TCPShare())
	fmt.Printf("443 funnel: %d candidates -> %d responded -> %d valid\n",
		res.Candidates443, res.Responded443, res.Valid443)

	_, cov, cl := env.Organizations(res)
	fmt.Printf("meta-data: DNS %.1f%%, URI %.1f%%, cert %.1f%%, any %.1f%% (of %d servers)\n",
		pct(cov.WithDNS, cov.Total), pct(cov.WithURI, cov.Total),
		pct(cov.WithCert, cov.Total), pct(cov.WithAny, cov.Total), cov.Total)

	fmt.Printf("clustering: %d orgs; steps %.1f%% / %.1f%% / %.1f%%\n",
		len(cl.Clusters),
		100*cl.ClusteredShare(cluster.Step1),
		100*cl.ClusteredShare(cluster.Step2),
		100*cl.ClusteredShare(cluster.Step3))

	// Fig. 7: link attribution for the Akamai-analog cluster, replayed
	// from the snapshot's flow product — no second pass over the
	// capture file (skipped on anonymized data, whose addresses no
	// longer match the cluster evidence meaningfully; or when the links
	// analyzer was deselected).
	if !anonymized {
		acme := env.Inputs.Acme
		c := cl.Clusters[acme.Domain]
		links, err := snap.Links()
		switch {
		case err != nil:
			fmt.Printf("fig 7: %v\n", err)
		case links == nil:
			fmt.Println("fig 7: links analyzer not in the registry — rerun without -analyzers narrowing")
		case c != nil:
			set := make(map[packet.IPv4Addr]bool, len(c.IPs))
			for _, ip := range c.IPs {
				set[ip] = true
			}
			ls := links.LinkStats(acme.HomeAS, env.EntityTable(), func(ip packet.IPv4Addr) bool { return set[ip] })
			fmt.Printf("fig 7 (%s): %.1f%% of traffic off the direct links; %d of %d servers only behind other members\n",
				acme.Name, 100*ls.OffLinkShare(), ls.ServersOnlyOffLink(),
				ls.ServersOnlyOffLink()+ls.NumDirectServers())
		}
	}
	fmt.Println("--- end deep dive ---")
	fmt.Println()
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
