// Command ixpgen generates a synthetic IXP measurement campaign to
// disk: one sFlow capture file per weekly snapshot, the campaign's
// inputs file — the RIB and geo DB, the member ports, the DNS zone data
// and the per-week crawl and PTR answers for every address the captures
// hold (package inputs) — and a manifest that records the world
// configuration and every file's digest, so cmd/ixpmine can analyse the
// captures without generating the world.
//
// Usage:
//
//	ixpgen [-scale 0.01] [-samples 60000] [-seed 1] -out capture/
//	ixpgen [-scale ...] -compress -out capture/    # DEFLATE-compressed blocks
//	ixpgen [-scale ...] -resume -out capture/      # pick up an interrupted run
//	ixpgen [-scale ...] -udp 127.0.0.1:6343    # export over sFlow's UDP transport
//	ixpgen [-scale ...] -fault-drop 0.05 -fault-corrupt 0.02 -out degraded/
//
// Captures are written in the checksummed v2 block container; -resume
// skips weeks whose files still verify against the manifest's digests,
// so an aborted campaign continues instead of starting over. The
// -fault-* flags write a deterministically degraded campaign (dropped,
// duplicated, reordered and corrupted datagrams), for exercising the
// analysis pipeline's loss accounting and robustness. The -fault-fs-*
// flags instead degrade the storage layer itself (short writes, fsync
// lies, torn renames, a write-byte quota that simulates ENOSPC) — the
// campaign's disk paths must survive them or fail loudly. SIGINT/SIGTERM
// abort generation cleanly mid-week.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ixplens/internal/capture"
	"ixplens/internal/faultline"
	"ixplens/internal/netmodel"
	"ixplens/internal/pipeline"
	"ixplens/internal/sflow"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0.01, "fraction of the paper's world size")
		samples  = flag.Int("samples", 60_000, "sFlow samples generated per week")
		seed     = flag.Int64("seed", 1, "world generation seed")
		out      = flag.String("out", "capture", "output directory")
		udp      = flag.String("udp", "", "export over UDP to this collector address instead of writing files")
		anonKey  = flag.Uint64("anonkey", 0, "prefix-preserving anonymization key (0 = no anonymization)")
		compress = flag.Bool("compress", false, "DEFLATE-compress capture blocks")
		resume   = flag.Bool("resume", false, "skip weeks already written and verified against the manifest digests")

		faultDrop    = flag.Float64("fault-drop", 0, "fraction of datagrams to drop (deterministic fault injection)")
		faultDup     = flag.Float64("fault-dup", 0, "fraction of datagrams to duplicate")
		faultReorder = flag.Float64("fault-reorder", 0, "fraction of datagrams to delay by one position")
		faultCorrupt = flag.Float64("fault-corrupt", 0, "fraction of datagrams to corrupt (half truncated, half bit-flipped)")
		faultSeed    = flag.Uint64("fault-seed", 1, "fault injection seed")

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

	cfg := netmodel.PaperScale(*scale)
	cfg.Seed = *seed
	opts := traffic.Options{SamplesPerWeek: *samples, SamplingRate: 16384, SnapLen: 128}

	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		fatal(err)
	}
	if *faultDrop > 0 || *faultDup > 0 || *faultReorder > 0 || *faultCorrupt > 0 {
		env.Faults = &faultline.Config{
			Seed:      *faultSeed,
			Drop:      *faultDrop,
			Duplicate: *faultDup,
			Reorder:   *faultReorder,
			Truncate:  *faultCorrupt / 2,
			BitFlip:   *faultCorrupt / 2,
		}
		if err := env.Faults.Validate(); err != nil {
			fatal(err)
		}
		fmt.Printf("fault injection: drop=%.3f dup=%.3f reorder=%.3f corrupt=%.3f seed=%d\n",
			*faultDrop, *faultDup, *faultReorder, *faultCorrupt, *faultSeed)
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
	if fscfg.Active() {
		if err := fscfg.Validate(); err != nil {
			fatal(err)
		}
		env.FS = faultline.NewFS(vfs.OS{}, fscfg)
		fmt.Printf("storage fault injection: quota=%d short-write=%.3f read-err=%.3f sync-fail=%.3f sync-corrupt=%.3f torn-rename=%.3f seed=%d\n",
			*fsQuota, *fsShortWrite, *fsReadErr, *fsSyncFail, *fsSyncCorrupt, *fsTornRename, *fsSeed)
	}
	fmt.Printf("world: %s\n", env)

	t0 := time.Now()
	if *udp != "" {
		if err := exportUDP(ctx, env, *udp); err != nil {
			fatal(err)
		}
		fmt.Printf("exported %d weeks over UDP in %v\n", cfg.Weeks, time.Since(t0))
		return
	}
	counts, err := capture.WriteCampaignOpts(ctx, env, *out, capture.WriteOptions{
		Compress:  *compress,
		Resume:    *resume,
		Anonymize: *anonKey != 0,
		AnonKey:   *anonKey,
	})
	if err != nil {
		fatal(err)
	}
	for i, n := range counts {
		fmt.Printf("  %s: %d datagrams\n", capture.WeekFile(cfg.FirstWeek+i), n)
	}
	fmt.Printf("wrote %d weeks to %s in %v\n", len(counts), *out, time.Since(t0))
}

// exportUDP ships every week's datagrams to a live collector over
// sFlow's native transport. Cancelling ctx aborts within one datagram.
func exportUDP(ctx context.Context, env *pipeline.Env, addr string) (err error) {
	exp, err := sflow.NewExporter(addr)
	if err != nil {
		return err
	}
	// A close failure means the tail of the export may never have left
	// the socket buffer; it must not be swallowed on the success path.
	defer func() {
		if cerr := exp.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	cfg := &env.Config
	for wk := cfg.FirstWeek; wk <= cfg.LastWeek(); wk++ {
		if _, err := env.EachDatagram(ctx, wk, exp.Send); err != nil {
			return fmt.Errorf("week %d: %w", wk, err)
		}
		fmt.Printf("  week %d exported (%d datagrams total, %d send retries)\n", wk, exp.Count(), exp.Retries())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ixpgen:", err)
	os.Exit(1)
}
