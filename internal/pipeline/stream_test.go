package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ixplens/internal/faultline"
	"ixplens/internal/netmodel"
	"ixplens/internal/traffic"
)

// TestStreamingCancelledPromptly: cancelling before the call aborts
// within one datagram flush rather than generating the whole week, on
// the serial branch and on the pool alike.
func TestStreamingCancelledPromptly(t *testing.T) {
	env, err := NewEnv(netmodel.Tiny(), traffic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, counts, _, err := env.streamWeek(ctx, env.Gen, env.Registry(), env.AnalysisContext(), 45, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// One datagram carries a handful of samples; anything near a full
		// week (30k samples at test scale) means cancellation didn't bite.
		if counts.Total > 100 {
			t.Fatalf("workers=%d: classified %d samples after pre-cancel", workers, counts.Total)
		}
	}
}

// TestTrackWeeksParallelConsistent pins TrackWeeks to the serial
// reference: every week of the week-parallel, webserver-only campaign
// must equal — in full, funnel, totals, ports, hosts and loss annotation
// included — the webserver product of a fresh one-worker analyzeWeek of
// the same week (generation and fault injection are deterministic per
// week). Injected drops make the loss annotations non-zero.
func TestTrackWeeksParallelConsistent(t *testing.T) {
	cfg := netmodel.Tiny()
	cfg.Weeks = 4
	opts := traffic.Options{SamplesPerWeek: 4000, SamplingRate: 16384, SnapLen: 128}
	env, err := NewEnv(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	env.Faults = &faultline.Config{Seed: 7, Drop: 0.05}
	tracker, results, _, err := env.TrackWeeks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tracker.NumWeeks() != 4 || len(results) != 4 {
		t.Fatalf("tracked %d weeks, %d results", tracker.NumWeeks(), len(results))
	}
	lossy := 0
	for idx, got := range results {
		isoWeek := cfg.FirstWeek + idx
		wk, err := env.analyzeWeek(context.Background(), isoWeek, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wk.Servers) {
			t.Fatalf("week %d: TrackWeeks result differs from analyzeWeek's:\n%+v\n%+v", isoWeek, got, wk.Servers)
		}
		if got.EstLoss > 0 {
			lossy++
		}
	}
	if lossy == 0 {
		t.Fatal("no week carries a loss annotation; the EstLoss comparison is vacuous")
	}
}
