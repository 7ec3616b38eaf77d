// Command ixpcollect is a minimal sFlow collector: it listens on UDP
// (the protocol's native transport, port 6343 by default), decodes
// incoming datagrams, and appends them to a checksummed v2 block
// capture file that cmd/ixpmine-style tooling can analyse. It stops
// after -count datagrams, after -for duration, or on SIGINT/SIGTERM.
//
// Pair it with the generator:
//
//	ixpcollect -listen 127.0.0.1:6343 -out week.sflow -count 10000 &
//	ixpgen -udp 127.0.0.1:6343 -scale 0.002 -samples 10000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"ixplens/internal/obs"
	"ixplens/internal/sflow"
)

func main() {
	var (
		listen   = flag.String("listen", fmt.Sprintf("127.0.0.1:%d", sflow.DefaultPort), "UDP address to listen on")
		out      = flag.String("out", "collected.sflow", "capture stream file to write")
		count    = flag.Int("count", 0, "stop after this many datagrams (0 = unlimited)")
		dur      = flag.Duration("for", 0, "stop after this duration (0 = unlimited)")
		every    = flag.Int("flush-every", 1024, "seal and flush a capture block every N datagrams (0 = only at exit)")
		compress = flag.Bool("compress", false, "DEFLATE-compress capture blocks")
		maxLoss  = flag.Float64("max-loss", 0, "abort when the estimated datagram loss fraction exceeds this (0 = no limit; checked every 256 datagrams)")
		debug    = flag.String("debug-addr", "", "serve expvar+pprof on this address and print a metrics snapshot at exit (empty = off)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *dur > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *dur)
		defer cancel()
	}

	if err := run(ctx, *listen, *out, *count, *maxLoss, *every, *compress, *debug); err != nil {
		fmt.Fprintln(os.Stderr, "ixpcollect:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, listen, out string, count int, maxLoss float64, flushEvery int, compress bool, debugAddr string) error {
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
	// Counter/histogram methods are nil-safe, so an uninstrumented run
	// (nil registry) pays only the no-op calls.
	var (
		mWritten    = reg.Counter("collect_datagrams_written_total")
		mFlows      = reg.Counter("collect_flow_samples_total")
		mFlushes    = reg.Counter("collect_file_flushes_total")
		mDgramFlows = reg.Histogram("collect_datagram_flows")
	)

	recv, err := sflow.NewReceiver(listen)
	if err != nil {
		return err
	}
	defer recv.Close()

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	sw, err := sflow.NewBlockWriter(f, compress)
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM or the -for timer cancel ctx; RunContext notices
	// within one read-deadline tick and returns cleanly.
	fmt.Printf("listening on %s, writing %s\n", recv.Addr(), out)
	written := 0
	err = recv.RunContext(ctx, func(d *sflow.Datagram) error {
		if err := sw.WriteDatagram(d); err != nil {
			return err
		}
		written++
		mWritten.Inc()
		mFlows.Add(uint64(len(d.Flows)))
		mDgramFlows.Observe(uint64(len(d.Flows)))
		// Periodic flushes bound how much a crash or kill -9 can lose on
		// a long-running collection.
		if flushEvery > 0 && written%flushEvery == 0 {
			if err := sw.Flush(); err != nil {
				return err
			}
			mFlushes.Inc()
		}
		// The per-agent sequence trackers estimate transport loss as it
		// happens; past -max-loss the collection is not worth continuing.
		if maxLoss > 0 && written%256 == 0 {
			if est := recv.EstLoss(); est > maxLoss {
				return fmt.Errorf("estimated datagram loss %.4f > max %.4f: %w",
					est, maxLoss, errLossExceeded)
			}
		}
		if count > 0 && written >= count {
			return errDone
		}
		return nil
	})
	if err != nil && err != errDone && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// Close seals the final block and writes the footer index, so the
	// file gets the fast parallel-decode path at analysis time. A kill
	// before this point leaves a footerless capture, which readers
	// degrade to a sequential scan of the intact blocks.
	if err := sw.Close(); err != nil {
		return err
	}
	received, malformed := recv.Stats()
	st := recv.SeqStats()
	fmt.Printf("wrote %d datagrams (%d received, %d malformed)\n", written, received, malformed)
	fmt.Printf("transport quality: %d seq gaps, %d dups, %d reordered, est loss %.2f%%\n",
		st.GapDatagrams, st.Duplicates, st.Reordered, 100*st.EstLoss())
	if err := f.Sync(); err != nil {
		return err
	}
	// The deferred Close above only backstops early error returns; the
	// close that seals a successful collection is checked — a full disk
	// can surface the write-back failure here, and a capture that did
	// not make it to disk must not exit 0.
	return f.Close()
}

// errDone signals the requested datagram count was reached.
var errDone = fmt.Errorf("done")

// errLossExceeded aborts a collection whose transport is too lossy.
var errLossExceeded = fmt.Errorf("loss threshold exceeded")
