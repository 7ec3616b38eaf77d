package supervise_test

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ixplens/internal/capture"
	"ixplens/internal/core/webserver"
	"ixplens/internal/faultline"
	"ixplens/internal/netmodel"
	"ixplens/internal/obs"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/snapshot"
	. "ixplens/internal/supervise"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

// chaosDiskFaults is the reference storage-fault mix for the chaos
// suite: every failure class the fault FS can inject, at rates high
// enough to fire many times across a 17-week campaign but low enough
// that retries (which draw fresh faults) converge.
func chaosDiskFaults(seed uint64) faultline.FSConfig {
	return faultline.FSConfig{
		Seed:        seed,
		ShortWrite:  0.01,
		SyncFail:    0.01,
		SyncCorrupt: 0.01,
		TornRename:  0.05,
		ReadErr:     0.002,
	}
}

// chaosSeeds are the fault schedules the convergence test sweeps: the
// first forty seeds and the long-committed 1973.
func chaosSeeds() []uint64 {
	seeds := []uint64{1973}
	for s := uint64(1); s <= 40; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

// TestStorageChaosConvergence is the crash-consistency acceptance test:
// a full 17-week supervised campaign where every byte to and from disk
// crosses a seeded fault-injecting filesystem (short writes, fsync
// failures, fsync-then-corrupt, torn renames, read EIO). The supervisor
// is restarted after every error — a crash — against the same damaged
// directory. The campaign must converge to snapshots byte-identical to
// a clean run's, never accept a corrupt artifact along the way, and
// leave a journal whose rerun is a verified no-op — for every seed.
func TestStorageChaosConvergence(t *testing.T) {
	// Reference digests from an undamaged campaign of the same world.
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
	want := snapshotDigests(t, clean, cleanDir)
	for _, seed := range chaosSeeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Each seed has its own environment, fault FS and directory;
			// only the clean run's digests are shared, read-only.
			t.Parallel()
			storageChaosRun(t, seed, want)
		})
	}
}

// storageChaosRun drives one seeded chaos campaign to convergence and
// checks it against the clean run's snapshot digests.
func storageChaosRun(t *testing.T, seed uint64, want map[int]string) {
	// Chaos run: one fault FS shared across every restart, so each
	// rewrite of a path draws the next faults in its deterministic
	// stream rather than replaying the same one forever.
	env := newEnv(t)
	ffs := faultline.NewFS(vfs.OS{}, chaosDiskFaults(seed))
	env.FS = ffs
	dir := t.TempDir()
	cfg := Config{
		Retries:          5,
		Backoff:          time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		RetryQuarantined: true,
	}
	weeks := env.World.Cfg.Weeks
	var rep *Report
	converged := false
	restarts := 0
	for ; restarts < 40 && !converged; restarts++ {
		sup, err := New(env, dir, cfg, nil)
		if err != nil {
			continue // campaign open hit a fault: crash, start over
		}
		r, err := sup.Run(context.Background())
		sup.Close()
		if err != nil {
			continue // mid-campaign crash
		}
		rep = r
		converged = rep.Completed == weeks && rep.Quarantined == 0
	}
	if !converged {
		t.Fatalf("no convergence after %d restarts: report %+v, faults %v",
			restarts, rep, ffs.Stats.String())
	}
	if ffs.Stats.Total() == 0 {
		t.Fatal("fault FS injected nothing; chaos run was vacuous")
	}
	t.Logf("converged after %d supervisor runs; injected faults: %v",
		restarts, ffs.Stats.String())

	got := snapshotDigests(t, env, dir)
	for wk, d := range want {
		if got[wk] != d {
			t.Errorf("week %d: chaos snapshot digest %s, clean run %s", wk, got[wk], d)
		}
	}

	// With the faults removed, a rerun must verify everything in place:
	// zero stage executions, all weeks resumed. Anything else means the
	// chaos run left an artifact the supervisor does not trust.
	env.FS = nil
	sup2, err := New(env, dir, Config{}, nil)
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
	if stages != 0 || rep2.Resumed != weeks || rep2.Completed != weeks {
		t.Fatalf("post-chaos rerun not a verified no-op: %d stages, report %+v", stages, rep2)
	}
}

// storageEnv builds a shortened campaign world for the disk-full test.
func storageEnv(t *testing.T, weeks int) *pipeline.Env {
	t.Helper()
	cfg := netmodel.Tiny()
	cfg.Weeks = weeks
	opts := traffic.Options{SamplesPerWeek: 2500, SamplingRate: 16384, SnapLen: 128}
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// dirBytes sums the sizes of all regular files under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestSupervisorStorageFullRecovers pins the ENOSPC degraded mode: a
// campaign against a disk with half the space it needs parks in
// storage-full waits (counted by supervise_storage_full_total) without
// burning retry budget, then completes cleanly once space is freed.
func TestSupervisorStorageFullRecovers(t *testing.T) {
	const weeks = 3
	// Size the quota off a clean campaign of the same world.
	ref := storageEnv(t, weeks)
	refDir := t.TempDir()
	supR, err := New(ref, refDir, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := supR.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	supR.Close()
	need := dirBytes(t, refDir)
	if need == 0 {
		t.Fatal("clean campaign wrote no bytes")
	}

	env := storageEnv(t, weeks)
	ffs := faultline.NewFS(vfs.OS{}, faultline.FSConfig{Seed: 41, Quota: need / 2})
	env.FS = ffs
	dir := t.TempDir()
	reg := obs.NewRegistry()
	sup, err := New(env, dir, Config{
		Backoff:    time.Millisecond,
		MaxBackoff: 10 * time.Millisecond,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := sup.Run(context.Background())
		done <- result{rep, err}
	}()

	// Wait for the supervisor to hit the wall and park.
	full := reg.Counter("supervise_storage_full_total")
	deadline := time.Now().Add(30 * time.Second)
	for full.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never reported storage full")
		}
		select {
		case r := <-done:
			t.Fatalf("run finished before filling the disk: %+v, %v", r.rep, r.err)
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Free space; the parked attempt must resume and finish the campaign.
	ffs.AddQuota(10 * need)
	var r result
	select {
	case r = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("supervisor did not finish after space was freed")
	}
	sup.Close()
	if r.err != nil {
		t.Fatalf("run after freeing space: %v", r.err)
	}
	if r.rep.Completed != weeks || r.rep.Quarantined != 0 {
		t.Fatalf("report after freeing space: %+v", r.rep)
	}
	if full.Value() == 0 {
		t.Fatal("supervise_storage_full_total stayed zero")
	}
}

// TestSaveFileNoTempLitterOnFailure: a failed atomic snapshot write
// must not leave its temp file behind.
func TestSaveFileNoTempLitterOnFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := faultline.NewFS(vfs.OS{}, faultline.FSConfig{Seed: 3, SyncFail: 1})
	snap := &snapshot.Snapshot{Result: &webserver.Result{
		Week:    1,
		Servers: map[packet.IPv4Addr]*webserver.Server{},
	}}
	if _, err := snapshot.SaveFileFS(ffs, filepath.Join(dir, snapshot.FileName(1)), snap); err == nil {
		t.Fatal("save through always-failing fsync succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("litter after failed save: %s", e.Name())
	}
}

// TestSweepTemps: campaign open removes stale atomic-write scratch
// files and leaves real artifacts alone.
func TestSweepTemps(t *testing.T) {
	dir := t.TempDir()
	litter := []string{".manifest-123456", ".snap-42", ".journal-7"}
	keep := []string{snapshot.FileName(1), "manifest.json", "journal.jsonl"}
	for _, name := range append(append([]string{}, litter...), keep...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n := capture.SweepTemps(vfs.Default, dir); n != len(litter) {
		t.Fatalf("swept %d files, want %d", n, len(litter))
	}
	for _, name := range litter {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("litter %s survived the sweep", name)
		}
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("real file %s: %v", name, err)
		}
	}
}
