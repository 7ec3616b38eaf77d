package pipeline_test

// The chaos suite: runs the full 17-week pipeline under the ISSUE's
// reference fault mix (5% datagram drop, 1% corruption split between
// truncation and bit flips, one poisoned worker lookup) and checks that
// (a) every week completes, (b) the loss estimate brackets the injected
// drop rate, and (c) the paper-level aggregates — stable-pool share and
// the stable pool's traffic share — stay within a documented tolerance
// of the fault-free run. Everything is seeded, so a failure reproduces
// exactly.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"ixplens/internal/core/churn"
	"ixplens/internal/faultline"
	. "ixplens/internal/pipeline"
)

// chaosConfig is the reference fault mix from the acceptance criteria.
func chaosConfig() *faultline.Config {
	return &faultline.Config{
		Seed:     7,
		Drop:     0.05,
		Truncate: 0.005,
		BitFlip:  0.005,
		// One poisoned lookup per week exercises the worker quarantine
		// without distorting the aggregates.
		PanicAtLookup: 1000,
	}
}

// aggregates condenses a TrackWeeks run into the paper-level numbers
// the tolerance check compares.
type aggregates struct {
	stableShare float64 // final week's stable pool share of server IPs
	stableBytes float64 // final week's stable pool share of traffic
	maxLoss     float64
}

func trackAggregates(t *testing.T, env *Env) aggregates {
	t.Helper()
	tracker, results, _, err := env.TrackWeeks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	weeks := tracker.Compute()
	if len(weeks) != env.World.Cfg.Weeks {
		t.Fatalf("tracked %d weeks, want %d", len(weeks), env.World.Cfg.Weeks)
	}
	var agg aggregates
	last := weeks[len(weeks)-1]
	agg.stableShare = last.Share(churn.PoolStable)
	agg.stableBytes = last.ByteShare(churn.PoolStable)
	for _, res := range results {
		if res.EstLoss > agg.maxLoss {
			agg.maxLoss = res.EstLoss
		}
	}
	return agg
}

// TestChaosTrackWeeks is the headline robustness check from ISSUE.md.
func TestChaosTrackWeeks(t *testing.T) {
	clean := newEnv(t)
	base := trackAggregates(t, clean)
	if base.maxLoss != 0 {
		t.Fatalf("fault-free run estimated %.4f loss", base.maxLoss)
	}

	faulty := newEnv(t)
	faulty.Faults = chaosConfig()
	if err := faulty.Faults.Validate(); err != nil {
		t.Fatal(err)
	}
	got := trackAggregates(t, faulty)

	// Loss estimate must bracket the injected drop rate: gaps can only
	// be observed per agent stream, so allow [rate/2, 2*rate].
	drop := faulty.Faults.Drop
	if got.maxLoss < drop/2 || got.maxLoss > 2*drop {
		t.Fatalf("estimated loss %.4f outside [%.4f, %.4f] for injected drop %.2f",
			got.maxLoss, drop/2, 2*drop, drop)
	}

	// Documented tolerance (README "Fault model"): with 5% drop + 1%
	// corruption the churn pool shares move by well under 0.15 absolute,
	// because pool membership needs only one sighting per week.
	const tol = 0.15
	if d := math.Abs(got.stableShare - base.stableShare); d > tol {
		t.Fatalf("stable pool share drifted %.3f under faults (%.3f vs %.3f), tolerance %.2f",
			d, got.stableShare, base.stableShare, tol)
	}
	if d := math.Abs(got.stableBytes - base.stableBytes); d > tol {
		t.Fatalf("stable traffic share drifted %.3f under faults (%.3f vs %.3f), tolerance %.2f",
			d, got.stableBytes, base.stableBytes, tol)
	}
}

// TestChaosAnalyzeWeekQuarantine checks the poisoned-lookup seam end to
// end: the panic fires inside a classifier, the batch quarantines, the
// week still completes, and the quarantine is visible in the counts.
func TestChaosAnalyzeWeekQuarantine(t *testing.T) {
	env := newEnv(t)
	env.Faults = &faultline.Config{Seed: 7, PanicAtLookup: 500}
	wk, err := env.AnalyzeWeek(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	if wk.Counts.PanicQuarantined == 0 {
		t.Fatal("poisoned lookup quarantined nothing")
	}
	if wk.Counts.Total+wk.Counts.PanicQuarantined != wk.Truth.Samples {
		t.Fatalf("conservation broken: %d tallied + %d quarantined != %d generated",
			wk.Counts.Total, wk.Counts.PanicQuarantined, wk.Truth.Samples)
	}
	if wk.EstLoss != 0 {
		t.Fatalf("panic-only faults must not register as loss, got %.4f", wk.EstLoss)
	}
}

// TestChaosDeterministic: two faulted runs with the same seed agree —
// the whole point of deterministic injection. Wire faults are applied
// in the single-threaded sink, so those runs must agree sample-exactly.
// A poisoned lookup fires on whichever classifier worker reaches the
// configured count first, so with parallel workers the quarantined
// *batch* is scheduler-dependent; what stays deterministic is the
// conservation sum and the loss estimate, asserted separately.
func TestChaosDeterministic(t *testing.T) {
	run := func(cfg faultline.Config) (total, quarantined int, est float64) {
		env := newEnv(t)
		env.Faults = &cfg
		wk, err := env.AnalyzeWeek(context.Background(), 45)
		if err != nil {
			t.Fatal(err)
		}
		return wk.Counts.Total, wk.Counts.PanicQuarantined, wk.EstLoss
	}

	wire := *chaosConfig()
	wire.PanicAtLookup = 0
	t1, _, e1 := run(wire)
	t2, _, e2 := run(wire)
	if t1 != t2 || e1 != e2 {
		t.Fatalf("wire-faulted runs diverged: (%d, %.6f) vs (%d, %.6f)", t1, e1, t2, e2)
	}

	full := *chaosConfig()
	ta, qa, ea := run(full)
	tb, qb, eb := run(full)
	if ta+qa != tb+qb || ea != eb {
		t.Fatalf("conservation sum diverged under panic injection: (%d+%d, %.6f) vs (%d+%d, %.6f)",
			ta, qa, ea, tb, qb, eb)
	}
}

// TestMaxLossAborts: a drop rate above the configured ceiling fails the
// week with ErrLossExceeded; raising the ceiling clears it.
func TestMaxLossAborts(t *testing.T) {
	env := newEnv(t)
	env.Faults = &faultline.Config{Seed: 7, Drop: 0.10}
	env.MaxLoss = 0.02
	if _, err := env.AnalyzeWeek(context.Background(), 45); !errors.Is(err, ErrLossExceeded) {
		t.Fatalf("err = %v, want ErrLossExceeded", err)
	}
	env.MaxLoss = 0.5
	if _, err := env.AnalyzeWeek(context.Background(), 45); err != nil {
		t.Fatalf("generous ceiling still failed: %v", err)
	}
}

// TestTrackWeeksPartial pins the degraded-campaign contract: when weeks
// fail (here: every week, via a drop rate far above the loss ceiling),
// TrackWeeks returns the gap-annotated tracker and the partial results
// slice alongside a typed WeekErrors set instead of aborting with a
// single opaque error.
func TestTrackWeeksPartial(t *testing.T) {
	env := newEnv(t)
	env.Faults = &faultline.Config{Seed: 7, Drop: 0.10}
	env.MaxLoss = 0.02
	cfg := &env.World.Cfg

	tracker, results, _, err := env.TrackWeeks(context.Background())
	if err == nil {
		t.Fatal("10% drop against a 2% ceiling must surface errors")
	}
	var werrs WeekErrors
	if !errors.As(err, &werrs) {
		t.Fatalf("err %T does not unwrap to WeekErrors: %v", err, err)
	}
	if len(werrs) != cfg.Weeks {
		t.Fatalf("%d week errors, want %d", len(werrs), cfg.Weeks)
	}
	if !errors.Is(err, ErrLossExceeded) {
		t.Fatalf("WeekErrors does not unwrap to ErrLossExceeded: %v", err)
	}
	var we *WeekError
	if !errors.As(err, &we) || we.Week != cfg.FirstWeek {
		t.Fatalf("first WeekError = %+v, want week %d", we, cfg.FirstWeek)
	}
	if tracker == nil || results == nil {
		t.Fatal("partial failure must still return tracker and results")
	}
	if len(results) != cfg.Weeks {
		t.Fatalf("results length %d, want %d", len(results), cfg.Weeks)
	}
	for idx, res := range results {
		if res != nil {
			t.Fatalf("week index %d unexpectedly succeeded", idx)
		}
	}
	weeks := tracker.Compute()
	if len(weeks) != cfg.Weeks {
		t.Fatalf("tracker computed %d weeks, want %d", len(weeks), cfg.Weeks)
	}
	for _, wc := range weeks {
		if !wc.Gap {
			t.Fatalf("week %d not marked as gap", wc.Week)
		}
	}
}

// TestTrackWeeksCancelled covers the ISSUE's cancellation criteria: a
// pre-cancelled context returns promptly with the context error, a
// mid-run cancel unwinds within one batch, and neither leaks goroutines.
func TestTrackWeeksCancelled(t *testing.T) {
	env := newEnv(t)
	before := runtime.NumGoroutine()

	// Already-cancelled: must not run any week.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, _, _, err := env.TrackWeeks(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled TrackWeeks err = %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("pre-cancelled TrackWeeks took %v", d)
	}

	// Mid-run: cancel shortly after dispatch begins.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel2()
	}()
	if _, _, _, err := env.TrackWeeks(ctx2); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel err = %v", err)
	}

	// All workers must be gone; generation is CPU-bound, so give the
	// runtime a moment to retire them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancel", before, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosAnalyzeWeekBuffered drives the fault mix through a buffered
// feed: the generation sink applies the degradation, the analysis
// driver surfaces it as the week's EstLoss annotation.
func TestChaosAnalyzeWeekBuffered(t *testing.T) {
	env := newEnv(t)
	env.Faults = &faultline.Config{Seed: 7, Drop: 0.05}
	buf, _ := BufferWeek(t, env, 45)
	prods, _, err := env.AnalyzeFeed(context.Background(), 45, 1, buf.Feed)
	if err != nil {
		t.Fatal(err)
	}
	wk := &Week{Servers: prods.Webserver(), EstLoss: prods.Webserver().EstLoss}
	if wk.EstLoss < 0.025 || wk.EstLoss > 0.10 {
		t.Fatalf("buffered EstLoss %.4f outside [0.025, 0.10] for 5%% drop", wk.EstLoss)
	}
	if len(wk.Servers.Servers) == 0 {
		t.Fatal("no servers identified from the degraded capture")
	}
}
