package supervise_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ixplens/internal/analysis"
	"ixplens/internal/capture"
	"ixplens/internal/faultline"
	"ixplens/internal/netmodel"
	"ixplens/internal/obs"
	"ixplens/internal/pipeline"
	"ixplens/internal/snapshot"
	. "ixplens/internal/supervise"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

// newEnv builds a small but full-length (17-week) world. Fault config
// is attached by individual tests.
func newEnv(t testing.TB) *pipeline.Env {
	t.Helper()
	cfg := netmodel.Tiny()
	opts := traffic.Options{SamplesPerWeek: 2500, SamplingRate: 16384, SnapLen: 128}
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// chaosFaults is the reference mix for the resilience tests: 5% drop
// plus bounded stalls.
func chaosFaults() *faultline.Config {
	return &faultline.Config{Seed: 7, Drop: 0.05, Stall: time.Millisecond, StallEvery: 500}
}

// snapshotDigests reads every week's snapshot digest from dir.
func snapshotDigests(t *testing.T, env *pipeline.Env, dir string) map[int]string {
	t.Helper()
	cfg := &env.World.Cfg
	out := make(map[int]string, cfg.Weeks)
	for wk := cfg.FirstWeek; wk <= cfg.LastWeek(); wk++ {
		d, err := capture.FileDigestFS(vfs.Default, filepath.Join(dir, snapshot.FileName(wk)))
		if err != nil {
			t.Fatalf("week %d snapshot: %v", wk, err)
		}
		out[wk] = d
	}
	return out
}

func TestSupervisorHappyPathAndNoopRerun(t *testing.T) {
	env := newEnv(t)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	sup, err := New(env, dir, Config{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	stages := 0
	sup.Hooks.BeforeStage = func(week int, stage string, attempt int) error {
		stages++
		return nil
	}
	rep, err := sup.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sup.Close()
	cfg := &env.World.Cfg
	if rep.Completed != cfg.Weeks || rep.Quarantined != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if stages != 3*cfg.Weeks {
		t.Fatalf("%d stage executions, want %d", stages, 3*cfg.Weeks)
	}
	ref := snapshotDigests(t, env, dir)

	// Re-running the finished campaign is a verified no-op: zero stage
	// executions, every week reported resumed, identical bytes.
	sup2, err := New(env, dir, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stages2 := 0
	sup2.Hooks.BeforeStage = func(int, string, int) error { stages2++; return nil }
	weeksSeen := 0
	sup2.Hooks.OnWeek = func(ws WeekStatus, snap *snapshot.Snapshot) {
		weeksSeen++
		if snap == nil {
			t.Errorf("week %d: nil snapshot on resumed rerun", ws.Week)
		}
	}
	rep2, err := sup2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sup2.Close()
	if stages2 != 0 {
		t.Fatalf("no-op rerun executed %d stages", stages2)
	}
	if rep2.Resumed != cfg.Weeks || rep2.Completed != cfg.Weeks || weeksSeen != cfg.Weeks {
		t.Fatalf("rerun report: %+v (weeks seen %d)", rep2, weeksSeen)
	}
	for wk, d := range snapshotDigests(t, env, dir) {
		if ref[wk] != d {
			t.Fatalf("week %d snapshot changed on no-op rerun", wk)
		}
	}
}

// TestSupervisorRetryTransient: a stage that fails transiently recovers
// within the retry budget and the final bytes match a clean run.
func TestSupervisorRetryTransient(t *testing.T) {
	clean := newEnv(t)
	cleanDir := t.TempDir()
	supC, err := New(clean, cleanDir, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := supC.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	supC.Close()
	ref := snapshotDigests(t, clean, cleanDir)

	env := newEnv(t)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	sup, err := New(env, dir, Config{Retries: 3, Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}, reg)
	if err != nil {
		t.Fatal(err)
	}
	flaky := 0
	failWeek := env.World.Cfg.FirstWeek + 2
	sup.Hooks.BeforeStage = func(week int, stage string, attempt int) error {
		if week == failWeek && stage == StageAnalyze && flaky < 2 {
			flaky++
			return fmt.Errorf("injected transient: %w", context.DeadlineExceeded)
		}
		return nil
	}
	rep, err := sup.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sup.Close()
	if rep.Quarantined != 0 || rep.Completed != env.World.Cfg.Weeks {
		t.Fatalf("report: %+v", rep)
	}
	var failed WeekStatus
	for _, ws := range rep.Weeks {
		if ws.Week == failWeek {
			failed = ws
		}
	}
	if failed.Attempts != 3 {
		t.Fatalf("flaky week attempts = %d, want 3", failed.Attempts)
	}
	if got := reg.Counters()["supervise_retries_total"]; got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
	for wk, d := range snapshotDigests(t, env, dir) {
		if ref[wk] != d {
			t.Fatalf("week %d snapshot differs from clean run after retries", wk)
		}
	}
}

// TestSupervisorQuarantine: a permanently failing week is quarantined
// after one attempt while the other weeks complete; a transiently
// failing week burns its whole budget first.
func TestSupervisorQuarantine(t *testing.T) {
	env := newEnv(t)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	sup, err := New(env, dir, Config{Retries: 3, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}, reg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &env.World.Cfg
	permWeek := cfg.FirstWeek + 1
	transWeek := cfg.FirstWeek + 4
	sup.Hooks.BeforeStage = func(week int, stage string, attempt int) error {
		switch {
		case week == permWeek && stage == StageSnapshot:
			return fmt.Errorf("injected permanent: %w", ErrDigestMismatch)
		case week == transWeek && stage == StageAnalyze:
			return errors.New("injected transient failure")
		}
		return nil
	}
	quarantinedSeen := 0
	sup.Hooks.OnWeek = func(ws WeekStatus, snap *snapshot.Snapshot) {
		if ws.Status == "quarantined" {
			quarantinedSeen++
			if snap != nil {
				t.Errorf("week %d: quarantined with a snapshot", ws.Week)
			}
		}
	}
	rep, err := sup.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if rep.Quarantined != 2 || quarantinedSeen != 2 {
		t.Fatalf("quarantined %d (hook saw %d), want 2", rep.Quarantined, quarantinedSeen)
	}
	if rep.Completed != cfg.Weeks-2 {
		t.Fatalf("completed %d, want %d", rep.Completed, cfg.Weeks-2)
	}
	byWeek := make(map[int]WeekStatus)
	for _, ws := range rep.Weeks {
		byWeek[ws.Week] = ws
	}
	if ws := byWeek[permWeek]; ws.Status != "quarantined" || ws.Attempts != 1 || !errors.Is(ws.Err, ErrDigestMismatch) {
		t.Fatalf("permanent week: %+v", ws)
	}
	if ws := byWeek[transWeek]; ws.Status != "quarantined" || ws.Attempts != 3 {
		t.Fatalf("transient week: %+v", ws)
	}
	if got := sup.State().QuarantinedWeeks(); len(got) != 2 || got[0] != permWeek || got[1] != transWeek {
		t.Fatalf("journal quarantine set: %v", got)
	}

	// The quarantine persists across runs: a plain rerun skips the
	// quarantined weeks without retrying them.
	sup2, err := New(env, dir, Config{Retries: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stages := 0
	sup2.Hooks.BeforeStage = func(int, string, int) error { stages++; return nil }
	rep2, err := sup2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sup2.Close()
	if stages != 0 || rep2.Quarantined != 2 {
		t.Fatalf("rerun retried quarantined weeks: stages=%d report=%+v", stages, rep2)
	}

	// RetryQuarantined half-opens the breaker; with the fault gone the
	// weeks complete and the campaign heals.
	sup3, err := New(env, dir, Config{Retries: 3, RetryQuarantined: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := sup3.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sup3.Close()
	if rep3.Quarantined != 0 || rep3.Completed != cfg.Weeks {
		t.Fatalf("healed report: %+v", rep3)
	}
}

// TestSupervisorQuarantineLimit: crossing the limit aborts the campaign
// with ErrQuarantineLimit.
func TestSupervisorQuarantineLimit(t *testing.T) {
	env := newEnv(t)
	sup, err := New(env, t.TempDir(), Config{
		Retries: 1, Backoff: time.Millisecond, QuarantineLimit: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sup.Hooks.BeforeStage = func(week int, stage string, attempt int) error {
		return fmt.Errorf("injected permanent: %w", ErrDigestMismatch)
	}
	_, err = sup.Run(context.Background())
	sup.Close()
	if !errors.Is(err, ErrQuarantineLimit) {
		t.Fatalf("err = %v, want ErrQuarantineLimit", err)
	}
}

// TestSupervisorWatchdog drives the stall injector: a watchdog shorter
// than the injected stalls cancels the capture stage and the week
// quarantines after its budget; a generous watchdog lets the same
// faults complete.
func TestSupervisorWatchdog(t *testing.T) {
	env := newEnv(t)
	env.Faults = &faultline.Config{Seed: 7, Stall: 30 * time.Millisecond, StallEvery: 50}
	if err := env.Faults.Validate(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sup, err := New(env, t.TempDir(), Config{
		Retries: 2, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		Watchdog: 10 * time.Millisecond, QuarantineLimit: 0,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sup.Run(context.Background())
	sup.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined == 0 {
		t.Fatal("10ms watchdog against 30ms stalls quarantined nothing")
	}
	if got := reg.Counters()["supervise_watchdog_fires_total"]; got == 0 {
		t.Fatal("watchdog fired zero times")
	}
	for _, ws := range rep.Weeks {
		if ws.Status == "quarantined" && !errors.Is(ws.Err, context.DeadlineExceeded) {
			t.Fatalf("week %d quarantined by %v, want deadline", ws.Week, ws.Err)
		}
	}

	// Same faults, generous watchdog: every week completes.
	env2 := newEnv(t)
	env2.Faults = env.Faults
	sup2, err := New(env2, t.TempDir(), Config{
		Retries: 2, Backoff: time.Millisecond, Watchdog: time.Minute,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := sup2.Run(context.Background())
	sup2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Quarantined != 0 || rep2.Completed != env2.World.Cfg.Weeks {
		t.Fatalf("generous watchdog report: %+v", rep2)
	}
}

// errCrash simulates kill -9 at a checkpoint boundary: the campaign
// aborts with no cleanup (the journal record is already durable).
var errCrash = errors.New("simulated crash")

// TestCrashResumeEquivalence is the acceptance criterion: kill the
// campaign at randomized checkpoint boundaries under 5% drop + stalls,
// resume with a fresh supervisor each time, and require the final
// snapshots to be byte-identical to an uninterrupted run for all 17
// weeks. Besides the randomized budget, every week is killed once right
// after its capture checkpoint — between the capture and the analyze
// checkpoint, the window in which the resumed run must let the analysis
// vouch for the capture — both for a campaign the supervisor writes
// itself and for one it adopts from an unsupervised writer, where the
// two checkpoints are appended back to back.
func TestCrashResumeEquivalence(t *testing.T) {
	// Uninterrupted reference run under the same fault mix.
	refEnv := newEnv(t)
	refEnv.Faults = chaosFaults()
	refDir := t.TempDir()
	supR, err := New(refEnv, refDir, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	repR, err := supR.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	supR.Close()
	if repR.Quarantined != 0 {
		t.Fatalf("reference run quarantined: %+v", repR)
	}
	ref := snapshotDigests(t, refEnv, refDir)

	for _, adopt := range []bool{false, true} {
		name := "supervised"
		if adopt {
			name = "adopted"
		}
		t.Run(name, func(t *testing.T) {
			env := newEnv(t)
			env.Faults = chaosFaults()
			dir := t.TempDir()
			if adopt {
				if _, err := capture.WriteCampaignOpts(context.Background(), env, dir, capture.WriteOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			crashLoop(t, env, dir)

			got := snapshotDigests(t, env, dir)
			for wk, d := range ref {
				if got[wk] != d {
					t.Fatalf("week %d snapshot differs after crash-resume (got %s, want %s)", wk, got[wk], d)
				}
			}

			// And the converged campaign is now a no-op.
			sup, err := New(env, dir, Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			stages := 0
			sup.Hooks.BeforeStage = func(int, string, int) error { stages++; return nil }
			rep, err := sup.Run(context.Background())
			sup.Close()
			if err != nil || stages != 0 || rep.Resumed != env.World.Cfg.Weeks {
				t.Fatalf("post-convergence rerun: err=%v stages=%d report=%+v", err, stages, rep)
			}
		})
	}
}

// crashLoop drives dir's campaign to completion through repeated
// crashes: each supervisor instance dies at a week's first capture
// checkpoint or after a pseudo-random number of checkpoints, whichever
// comes first, and is replaced. That is exactly the kill -9 + restart
// cycle, since every checkpoint is durable before the crash hook sees
// it.
func crashLoop(t *testing.T, env *pipeline.Env, dir string) {
	t.Helper()
	crashAfter := []int{7, 5, 3, 8, 2, 6, 4, 9, 1, 5, 3, 7}
	killedAfterCapture := make(map[int]bool)
	runs, crashes := 0, 0
	for {
		runs++
		if runs > 100 {
			t.Fatal("campaign did not converge within 100 crash-resume cycles")
		}
		sup, err := New(env, dir, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		budget := crashAfter[(runs-1)%len(crashAfter)]
		seen := 0
		sup.Hooks.AfterCheckpoint = func(week int, stage string) error {
			seen++
			if stage == StageCapture && !killedAfterCapture[week] {
				killedAfterCapture[week] = true
				return errCrash
			}
			if seen >= budget {
				return errCrash
			}
			return nil
		}
		rep, err := sup.Run(context.Background())
		sup.Close()
		if err == nil {
			if rep.Completed != env.World.Cfg.Weeks {
				t.Fatalf("converged with %d/%d weeks", rep.Completed, env.World.Cfg.Weeks)
			}
			break
		}
		if !errors.Is(err, errCrash) {
			t.Fatalf("run %d died of %v, not the injected crash", runs, err)
		}
		crashes++
	}
	if crashes < env.World.Cfg.Weeks {
		t.Fatalf("%d crashes; every one of %d weeks must die once after its capture checkpoint", crashes, env.World.Cfg.Weeks)
	}
	t.Logf("converged after %d runs (%d crashes)", runs, crashes)
}

// TestSupervisorSelfHealsDamage: deleting or corrupting artifacts of a
// done week triggers deterministic regeneration on the next run, ending
// in identical bytes.
func TestSupervisorSelfHealsDamage(t *testing.T) {
	env := newEnv(t)
	dir := t.TempDir()
	sup, err := New(env, dir, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sup.Close()
	ref := snapshotDigests(t, env, dir)
	cfg := &env.World.Cfg

	// Damage one capture (bit flip) and delete another week's snapshot.
	flipWeek, delWeek := cfg.FirstWeek+3, cfg.FirstWeek+9
	if _, err := faultline.FlipFileBitFS(vfs.Default, filepath.Join(dir, capture.WeekFile(flipWeek)), 4096); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, snapshot.FileName(delWeek))); err != nil {
		t.Fatal(err)
	}

	sup2, err := New(env, dir, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sup2.Run(context.Background())
	sup2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 0 {
		t.Fatalf("self-heal quarantined: %+v", rep)
	}
	if rep.Resumed != cfg.Weeks-2 {
		t.Fatalf("resumed %d, want %d (two damaged weeks re-ran)", rep.Resumed, cfg.Weeks-2)
	}
	for wk, d := range snapshotDigests(t, env, dir) {
		if ref[wk] != d {
			t.Fatalf("week %d snapshot differs after self-heal", wk)
		}
	}
}

// TestSupervisorReminesIXPSNAP1: a week whose snapshot is in the
// retired single-section container (as builds before IXPSNAP2 wrote it)
// is mined again, to the same IXPSNAP2 bytes a fresh run writes, while
// every other week resumes.
func TestSupervisorReminesIXPSNAP1(t *testing.T) {
	cfg := netmodel.Tiny()
	cfg.Weeks = 3
	env, err := pipeline.NewEnv(cfg, traffic.Options{SamplesPerWeek: 1500, SamplingRate: 16384, SnapLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func() *Report {
		t.Helper()
		sup, err := New(env, dir, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sup.Close()
		rep, err := sup.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	run()
	ref := snapshotDigests(t, env, dir)

	wk := cfg.FirstWeek + 1
	path := filepath.Join(dir, snapshot.FileName(wk))
	snap, err := snapshot.LoadFileFS(vfs.Default, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, ixpsnap1(t, snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.LoadFileFS(vfs.Default, path); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Fatalf("IXPSNAP1 file loads with %v, want ErrBadMagic", err)
	}

	if rep := run(); rep.Completed != cfg.Weeks || rep.Resumed != cfg.Weeks-1 || rep.Quarantined != 0 {
		t.Fatalf("rerun report %+v, want %d completed, %d resumed", rep, cfg.Weeks, cfg.Weeks-1)
	}
	for w, d := range snapshotDigests(t, env, dir) {
		if ref[w] != d {
			t.Fatalf("week %d snapshot differs from a fresh run's after the re-mine", w)
		}
	}
}

// ixpsnap1 encodes snap in the retired single-section container:
// "IXPSNAP1" rawLen:u32 crc:u32, then the source digest, the eleven
// cascade counts and the result.
func ixpsnap1(tb testing.TB, snap *snapshot.Snapshot) []byte {
	tb.Helper()
	c := &snap.Counts
	payload := analysis.AppendString(nil, snap.SourceDigest)
	for _, v := range []uint64{uint64(c.Total), uint64(c.Undecodable), uint64(c.NonIPv4), uint64(c.Local),
		uint64(c.NonTCPUDP), uint64(c.PeeringTCP), uint64(c.PeeringUDP), uint64(c.PanicQuarantined),
		c.TotalBytes, c.PeeringTCPBytes, c.PeeringUDPBytes} {
		payload = binary.BigEndian.AppendUint64(payload, v)
	}
	payload, err := analysis.AppendResult(payload, snap.Result)
	if err != nil {
		tb.Fatal(err)
	}
	out := binary.BigEndian.AppendUint32([]byte("IXPSNAP1"), uint32(len(payload)))
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload...)
}

// TestSupervisorAdoptsUnsupervisedCampaign: the supervisor must be a
// drop-in over a campaign written by plain WriteCampaignOpts — no journal,
// manifest digests only. The anonymized case is the sharp one: without
// adoption the supervisor would need the key to rewrite every week and
// quarantine them all with ErrAnonKeyRequired; with adoption the
// manifest digests vouch for the files and only analyze+snapshot run.
func TestSupervisorAdoptsUnsupervisedCampaign(t *testing.T) {
	env := newEnv(t)
	dir := t.TempDir()
	if _, err := capture.WriteCampaignOpts(context.Background(), env, dir, capture.WriteOptions{Anonymize: true, AnonKey: 0xfeedface}); err != nil {
		t.Fatal(err)
	}
	cfg := &env.World.Cfg

	// No key in the supervisor's config: any rewrite attempt fails, so a
	// fully completed run proves every capture was adopted, not rewritten.
	sup, err := New(env, dir, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sup.Run(context.Background())
	sup.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != cfg.Weeks || rep.Quarantined != 0 {
		t.Fatalf("adoption run: %d completed, %d quarantined, want %d/0 (first err: %v)",
			rep.Completed, rep.Quarantined, cfg.Weeks, firstErr(rep))
	}
	// The manifest on disk must still say anonymized — the supervisor
	// inherited the identity rather than overwriting it.
	man, err := capture.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !man.Anonymized || man.AnonFP == "" {
		t.Fatalf("manifest anonymization lost: %+v", man)
	}
	// Second run: pure no-op resume.
	sup2, err := New(env, dir, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := sup2.Run(context.Background())
	sup2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != cfg.Weeks {
		t.Fatalf("rerun resumed %d, want %d", rep2.Resumed, cfg.Weeks)
	}
}

// firstErr extracts the first week error in a report for diagnostics.
func firstErr(rep *Report) error {
	for _, ws := range rep.Weeks {
		if ws.Err != nil {
			return ws.Err
		}
	}
	return nil
}

// countFS counts the bytes read through Open'ed handles, per file name.
type countFS struct {
	vfs.FS
	mu   sync.Mutex
	read map[string]int64
}

func (c *countFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, name: filepath.Base(name)}, nil
}

func (c *countFS) add(name string, n int) {
	c.mu.Lock()
	c.read[name] += int64(n)
	c.mu.Unlock()
}

type countFile struct {
	vfs.File
	fs   *countFS
	name string
}

func (f *countFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.add(f.name, n)
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.add(f.name, n)
	return n, err
}

// TestSupervisorReadsEachCaptureOnce pins the read economy: adopting a
// campaign reads every capture in one pass (the analysis is the digest
// check; the slack covers the container header sniff and the footer
// index), and the verified no-op rerun hashes each capture exactly once.
func TestSupervisorReadsEachCaptureOnce(t *testing.T) {
	env := newEnv(t)
	dir := t.TempDir()
	if _, err := capture.WriteCampaignOpts(context.Background(), env, dir, capture.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	cfs := &countFS{FS: vfs.OS{}, read: make(map[string]int64)}
	env.FS = cfs
	cfg := &env.World.Cfg

	run := func() *Report {
		t.Helper()
		sup, err := New(env, dir, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sup.Close()
		rep, err := sup.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != cfg.Weeks || rep.Quarantined != 0 {
			t.Fatalf("report: %+v (first err: %v)", rep, firstErr(rep))
		}
		return rep
	}
	size := func(wk int) int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, capture.WeekFile(wk)))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	if rep := run(); rep.Resumed != 0 {
		t.Fatalf("adopting run resumed %d weeks", rep.Resumed)
	}
	for wk := cfg.FirstWeek; wk <= cfg.LastWeek(); wk++ {
		if got, sz := cfs.read[capture.WeekFile(wk)], size(wk); got < sz || got > sz+64<<10 {
			t.Errorf("week %d: adopting run read %d bytes of a %d-byte capture", wk, got, sz)
		}
	}

	cfs.read = make(map[string]int64)
	if rep := run(); rep.Resumed != cfg.Weeks {
		t.Fatalf("rerun resumed %d weeks, want %d", rep.Resumed, cfg.Weeks)
	}
	for wk := cfg.FirstWeek; wk <= cfg.LastWeek(); wk++ {
		if got, sz := cfs.read[capture.WeekFile(wk)], size(wk); got != sz {
			t.Errorf("week %d: no-op rerun read %d bytes of a %d-byte capture", wk, got, sz)
		}
	}
}

// TestSupervisorAdoptionDiscardsDamagedAnalysis: a bit flipped in a week
// the manifest vouches for must not reach a snapshot. The analysis runs
// (the flip only quarantines a block), observes a digest the manifest
// does not record, and is discarded; the week regenerates and the
// campaign ends byte-identical to a clean one.
func TestSupervisorAdoptionDiscardsDamagedAnalysis(t *testing.T) {
	clean := newEnv(t)
	cleanDir := t.TempDir()
	supC, err := New(clean, cleanDir, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := supC.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	supC.Close()
	ref := snapshotDigests(t, clean, cleanDir)

	env := newEnv(t)
	dir := t.TempDir()
	if _, err := capture.WriteCampaignOpts(context.Background(), env, dir, capture.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	man, err := capture.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	const damaged = 5 // index into the manifest
	path := filepath.Join(dir, man.Files[damaged])
	if _, err := faultline.FlipFileBitFS(vfs.Default, path, 4096); err != nil {
		t.Fatal(err)
	}

	cfs := &countFS{FS: vfs.OS{}, read: make(map[string]int64)}
	env.FS = cfs
	reg := obs.NewRegistry()
	sup, err := New(env, dir, Config{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	analyses := 0
	sup.Hooks.BeforeStage = func(week int, stage string, attempt int) error {
		if week == man.Weeks[damaged] && stage == StageAnalyze {
			analyses++
		}
		return nil
	}
	rep, err := sup.Run(context.Background())
	sup.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != env.World.Cfg.Weeks || rep.Quarantined != 0 {
		t.Fatalf("report: %+v (first err: %v)", rep, firstErr(rep))
	}
	if got := reg.Counters()["supervise_capture_digest_mismatch_total"]; got != 1 {
		t.Fatalf("supervise_capture_digest_mismatch_total = %d, want 1", got)
	}
	if analyses != 2 {
		t.Fatalf("damaged week analyzed %d times, want 2 (one discarded, one over the regenerated file)", analyses)
	}
	if got, err := capture.FileDigestFS(vfs.Default, path); err != nil || got != man.Digests[damaged] {
		t.Fatalf("damaged week not regenerated: digest %s (%v), manifest %s", got, err, man.Digests[damaged])
	}
	// The discarded analysis already saw the damage: no re-hash before the
	// rewrite, so three passes in all (it, the read-back, the re-analysis).
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, max := cfs.read[man.Files[damaged]], 3*(fi.Size()+64<<10); got > max {
		t.Fatalf("damaged week read %d bytes, want at most %d (three passes)", got, max)
	}
	for wk, d := range snapshotDigests(t, env, dir) {
		if ref[wk] != d {
			t.Fatalf("week %d snapshot differs from a clean campaign", wk)
		}
	}
}

// TestSupervisorCancelAfterAnalysis: a cancel that lands after the
// analysis succeeded (here right on its checkpoint) must not turn the
// week into a "done" with no snapshot. The week in flight finishes with
// its real snapshot, the campaign stops with context.Canceled, and a
// second run completes to the same bytes as an undisturbed one.
func TestSupervisorCancelAfterAnalysis(t *testing.T) {
	clean := newEnv(t)
	cleanDir := t.TempDir()
	supC, err := New(clean, cleanDir, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := supC.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	supC.Close()
	ref := snapshotDigests(t, clean, cleanDir)

	env := newEnv(t)
	dir := t.TempDir()
	if _, err := capture.WriteCampaignOpts(context.Background(), env, dir, capture.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	cfg := &env.World.Cfg
	hit := cfg.FirstWeek + 2

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sup, err := New(env, dir, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sup.Hooks.AfterCheckpoint = func(week int, stage string) error {
		if week == hit && stage == StageAnalyze {
			cancel()
		}
		return nil
	}
	seen := 0
	sup.Hooks.OnWeek = func(ws WeekStatus, snap *snapshot.Snapshot) {
		seen++
		if ws.Status == "done" && (snap == nil || snap.Result == nil) {
			t.Errorf("week %d reported done without a snapshot", ws.Week)
		}
	}
	rep, err := sup.Run(ctx)
	sup.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if want := hit - cfg.FirstWeek + 1; rep.Completed != want || seen != want {
		t.Fatalf("cancelled run: %d completed, %d observed, want %d", rep.Completed, seen, want)
	}

	sup2, err := New(env, dir, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := sup2.Run(context.Background())
	sup2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Completed != cfg.Weeks || rep2.Quarantined != 0 || rep2.Resumed != rep.Completed {
		t.Fatalf("second run: %+v (first err: %v)", rep2, firstErr(rep2))
	}
	for wk, d := range snapshotDigests(t, env, dir) {
		if ref[wk] != d {
			t.Fatalf("week %d snapshot differs from an undisturbed campaign", wk)
		}
	}
}

// TestSupervisorAdoptBuildsNoWorld mines an ixpgen-written campaign from
// its inputs file under a generator half that fails the test if it is
// built: adopting verified captures must not generate the world. The
// snapshots equal those of a world-backed run over a copy.
func TestSupervisorAdoptBuildsNoWorld(t *testing.T) {
	env := newEnv(t)
	dir, ref := t.TempDir(), t.TempDir()
	for _, d := range []string{dir, ref} {
		if _, err := capture.WriteCampaignOpts(context.Background(), env, d, capture.WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	man, opened, err := capture.Open(context.Background(), vfs.Default, dir)
	if err != nil {
		t.Fatal(err)
	}
	if opened.World != nil {
		t.Fatal("capture.Open built the world for a campaign whose inputs verify")
	}
	lazy := pipeline.NewInputsEnv(man.Config, man.Options, opened.Inputs, func() (*pipeline.Env, error) {
		t.Error("the generator half was built on the adopt path")
		return nil, errors.New("no world on the adopt path")
	})
	for _, run := range []struct {
		env *pipeline.Env
		dir string
	}{{lazy, dir}, {env, ref}} {
		sup, err := New(run.env, run.dir, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sup.Run(context.Background())
		sup.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != 17 || rep.Quarantined != 0 {
			t.Fatalf("%d done, %d quarantined: %v", rep.Completed, rep.Quarantined, firstErr(rep))
		}
	}
	got, want := snapshotDigests(t, env, dir), snapshotDigests(t, env, ref)
	for wk, d := range want {
		if got[wk] != d {
			t.Fatalf("week %d: snapshot mined from the inputs file differs from the world-backed one", wk)
		}
	}
}
