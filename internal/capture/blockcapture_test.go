package capture

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ixplens/internal/faultline"
	"ixplens/internal/netmodel"
	"ixplens/internal/obs"
	"ixplens/internal/pipeline"
	"ixplens/internal/sflow"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

// writeV1Week renders one week into the legacy v1 stream container —
// the format every pre-existing campaign on disk is in: the magic, then
// each datagram's encoding behind its big-endian length — and returns
// the week's datagram count.
func writeV1Week(env *pipeline.Env, isoWeek int, path string) (int, error) {
	buf := []byte("IXPSFLW1")
	n := 0
	if _, err := env.EachDatagram(context.Background(), isoWeek, func(d *sflow.Datagram) error {
		off := len(buf)
		buf = d.AppendEncode(append(buf, 0, 0, 0, 0))
		binary.BigEndian.PutUint32(buf[off:], uint32(len(buf)-off-4))
		n++
		return nil
	}); err != nil {
		return 0, err
	}
	return n, os.WriteFile(path, buf, 0o644)
}

// mustWriteV1Week is writeV1Week failing the test on error.
func mustWriteV1Week(t *testing.T, env *pipeline.Env, isoWeek int, path string) int {
	t.Helper()
	n, err := writeV1Week(env, isoWeek, path)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestGoldenV1V2Equivalence writes the same full 17-week campaign in
// both container formats and requires AnalyzeWeekSnapshot to produce
// identical results from either — the v2 migration must be invisible to
// the analysis.
func TestGoldenV1V2Equivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-campaign golden comparison")
	}
	cfg := netmodel.Tiny()
	opts := traffic.Options{SamplesPerWeek: 1500, SamplingRate: 16384, SnapLen: 128}
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	v1dir, v2dir := t.TempDir(), t.TempDir()

	// Week generation is deterministic in (seed, week) alone, so the v1
	// files written here carry the same datagrams WriteCampaignOpts renders.
	v1counts := make([]int, 0, cfg.Weeks)
	for wk := cfg.FirstWeek; wk <= cfg.LastWeek(); wk++ {
		v1counts = append(v1counts, mustWriteV1Week(t, env, wk, filepath.Join(v1dir, WeekFile(wk))))
	}
	v2counts, err := WriteCampaignOpts(context.Background(), env, v2dir, WriteOptions{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v1counts, v2counts) {
		t.Fatalf("datagram counts diverge: v1 %v, v2 %v", v1counts, v2counts)
	}

	man, err := ReadManifest(v2dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Format != 2 || !man.Compression {
		t.Fatalf("manifest format/compression = %d/%v", man.Format, man.Compression)
	}
	if len(man.Digests) != cfg.Weeks || len(man.Datagrams) != cfg.Weeks {
		t.Fatalf("manifest digests/datagrams: %d/%d entries", len(man.Digests), len(man.Datagrams))
	}
	for i, wk := range man.Weeks {
		if man.Datagrams[i] != v2counts[i] {
			t.Fatalf("week %d: manifest says %d datagrams, writer reported %d", wk, man.Datagrams[i], v2counts[i])
		}
		got, err := FileDigestFS(vfs.Default, filepath.Join(v2dir, man.Files[i]))
		if err != nil {
			t.Fatal(err)
		}
		if got != man.Digests[i] {
			t.Fatalf("week %d digest mismatch", wk)
		}

		s1, err := AnalyzeWeekSnapshot(context.Background(), env, filepath.Join(v1dir, man.Files[i]), wk)
		if err != nil {
			t.Fatalf("v1 week %d: %v", wk, err)
		}
		s2, err := AnalyzeWeekSnapshot(context.Background(), env, filepath.Join(v2dir, man.Files[i]), wk)
		if err != nil {
			t.Fatalf("v2 week %d: %v", wk, err)
		}
		if s1.Counts != s2.Counts {
			t.Fatalf("week %d cascade diverges: v1 %+v, v2 %+v", wk, s1.Counts, s2.Counts)
		}
		if !reflect.DeepEqual(s1.Result, s2.Result) {
			t.Fatalf("week %d analysis diverges between containers", wk)
		}
		if s1.Counts.Total == 0 || len(s1.Result.Servers) == 0 {
			t.Fatalf("week %d analysis empty", wk)
		}
	}
}

// instrumented returns a small campaign plus a metrics registry wired
// into its env, for asserting on the capture damage counters.
func instrumented(t *testing.T, weeks int) (*pipeline.Env, *obs.Registry, string) {
	t.Helper()
	cfg := netmodel.Tiny()
	cfg.Weeks = weeks
	opts := traffic.Options{SamplesPerWeek: 3000, SamplingRate: 16384, SnapLen: 128}
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	env.Instrument(reg)
	dir := t.TempDir()
	if _, err := WriteCampaignOpts(context.Background(), env, dir, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return env, reg, dir
}

func counterValue(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	return reg.Counters()[name]
}

// TestCorruptedBlockQuarantine flips one bit in the middle of a v2
// capture — the single-bit disk corruption the checksums exist for —
// and requires the analysis to quarantine the damaged block, count it,
// and surface the lost datagrams as estimated loss instead of failing.
func TestCorruptedBlockQuarantine(t *testing.T) {
	env, reg, dir := instrumented(t, 2)
	path := filepath.Join(dir, WeekFile(env.World.Cfg.FirstWeek))

	clean, err := AnalyzeWeekSnapshot(context.Background(), env, path, env.World.Cfg.FirstWeek)
	if err != nil {
		t.Fatal(err)
	}

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	off, err := faultline.FlipFileBitFS(vfs.Default, path, uint64(fi.Size()/2))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flipped one bit at offset %d of %d", off, fi.Size())

	damaged, err := AnalyzeWeekSnapshot(context.Background(), env, path, env.World.Cfg.FirstWeek)
	if err != nil {
		t.Fatalf("bit flip must degrade, not fail: %v", err)
	}
	if got := counterValue(t, reg, "capture_blocks_corrupt_total"); got != 1 {
		t.Fatalf("corrupt blocks counted = %d, want 1", got)
	}
	if got := counterValue(t, reg, "capture_datagrams_quarantined_total"); got == 0 {
		t.Fatal("no quarantined datagrams counted")
	}
	if damaged.Counts.Total >= clean.Counts.Total {
		t.Fatalf("quarantine lost nothing: %d of %d samples survived", damaged.Counts.Total, clean.Counts.Total)
	}
	if damaged.Result.EstLoss <= 0 {
		t.Fatal("quarantined datagrams must surface as estimated loss")
	}
}

// TestLossyCaptureReportsLoss: a capture written under datagram drop
// must report the loss its sequence gaps reveal through the same
// metrics the streamed analysis feeds — the capture path is what
// ixpmine and ixpserve run.
func TestLossyCaptureReportsLoss(t *testing.T) {
	cfg := netmodel.Tiny()
	cfg.Weeks = 2
	opts := traffic.Options{SamplesPerWeek: 3000, SamplingRate: 16384, SnapLen: 128}
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	env.Faults = &faultline.Config{Drop: 0.05}
	wk := cfg.FirstWeek
	path := filepath.Join(t.TempDir(), WeekFile(wk))
	if _, _, err := WriteWeekFile(context.Background(), env, wk, path, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	env.Faults = nil
	reg := obs.NewRegistry()
	env.Instrument(reg)
	snap, err := AnalyzeWeekSnapshot(context.Background(), env, path, wk)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Result.EstLoss <= 0 {
		t.Fatal("a 5% drop capture carries no estimated loss")
	}
	if got := counterValue(t, reg, "pipeline_seq_gap_datagrams_total"); got == 0 {
		t.Fatal("pipeline_seq_gap_datagrams_total stayed 0 on a lossy capture")
	}
	if got, want := reg.Gauge("pipeline_est_loss_bp").Value(), int64(snap.Result.EstLoss*10_000); got != want {
		t.Fatalf("pipeline_est_loss_bp = %d, want %d", got, want)
	}
}

// TestTruncatedCaptureDegrades cuts a v2 capture mid-file — the shape a
// crash or full disk leaves behind — and requires the analysis to keep
// everything before the cut and mark the file truncated.
func TestTruncatedCaptureDegrades(t *testing.T) {
	env, reg, dir := instrumented(t, 2)
	wk := env.World.Cfg.FirstWeek
	path := filepath.Join(dir, WeekFile(wk))

	clean, err := AnalyzeWeekSnapshot(context.Background(), env, path, wk)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()*6/10); err != nil {
		t.Fatal(err)
	}
	cut, err := AnalyzeWeekSnapshot(context.Background(), env, path, wk)
	if err != nil {
		t.Fatalf("truncated capture must degrade, not fail: %v", err)
	}
	if cut.Counts.Total == 0 || cut.Counts.Total >= clean.Counts.Total {
		t.Fatalf("truncated analysis saw %d of %d samples", cut.Counts.Total, clean.Counts.Total)
	}
	if got := counterValue(t, reg, "capture_truncated_files_total"); got != 1 {
		t.Fatalf("truncated files counted = %d, want 1", got)
	}
}

// TestTruncatedV1CaptureDegrades: the same crash tolerance holds on the
// legacy container, via the typed ErrTruncated from the v1 reader.
func TestTruncatedV1CaptureDegrades(t *testing.T) {
	cfg := netmodel.Tiny()
	cfg.Weeks = 2
	opts := traffic.Options{SamplesPerWeek: 3000, SamplingRate: 16384, SnapLen: 128}
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	env.Instrument(reg)
	path := filepath.Join(t.TempDir(), "week.sflow")
	mustWriteV1Week(t, env, cfg.FirstWeek, path)

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()*6/10); err != nil {
		t.Fatal(err)
	}
	cut, err := AnalyzeWeekSnapshot(context.Background(), env, path, cfg.FirstWeek)
	if err != nil {
		t.Fatalf("truncated v1 capture must degrade, not fail: %v", err)
	}
	if cut.Counts.Total == 0 {
		t.Fatal("nothing decoded before the cut")
	}
	if got := counterValue(t, reg, "capture_truncated_files_total"); got != 1 {
		t.Fatalf("truncated files counted = %d, want 1", got)
	}
}

// TestCampaignResume checks the crash-recovery write path: weeks whose
// files verify against the manifest digests are skipped, damaged ones
// are rewritten, and option changes invalidate the whole directory.
func TestCampaignResume(t *testing.T) {
	env := smallEnv(t)
	dir := t.TempDir()
	counts1, err := WriteCampaignOpts(context.Background(), env, dir, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	man1, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Backdate every file so "rewritten" is observable as a fresh mtime.
	past := time.Now().Add(-time.Hour)
	for _, name := range man1.Files {
		if err := os.Chtimes(filepath.Join(dir, name), past, past); err != nil {
			t.Fatal(err)
		}
	}
	mtime := func(name string) time.Time {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return fi.ModTime()
	}

	// A resume over an intact campaign rewrites nothing.
	env2, err := man1.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	counts2, err := WriteCampaignOpts(context.Background(), env2, dir, WriteOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts1, counts2) {
		t.Fatalf("resume changed counts: %v vs %v", counts1, counts2)
	}
	for _, name := range man1.Files {
		if !mtime(name).Equal(past) {
			t.Fatalf("resume rewrote intact week %s", name)
		}
	}

	// Damage one week; only that week is rewritten.
	damaged := man1.Files[1]
	if _, err := faultline.FlipFileBitFS(vfs.Default, filepath.Join(dir, damaged), 12345); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(filepath.Join(dir, damaged), past, past); err != nil {
		t.Fatal(err)
	}
	counts3, err := WriteCampaignOpts(context.Background(), env2, dir, WriteOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts1, counts3) {
		t.Fatalf("resume after damage changed counts: %v vs %v", counts1, counts3)
	}
	for i, name := range man1.Files {
		rewritten := !mtime(name).Equal(past)
		if (name == damaged) != rewritten {
			t.Fatalf("file %d (%s): rewritten=%v", i, name, rewritten)
		}
	}
	man3, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FileDigestFS(vfs.Default, filepath.Join(dir, damaged))
	if err != nil {
		t.Fatal(err)
	}
	if got != man3.Digests[1] {
		t.Fatal("rewritten week does not match its fresh digest")
	}

	// Changed options (compression here) must invalidate every week.
	for _, name := range man1.Files {
		if err := os.Chtimes(filepath.Join(dir, name), past, past); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := WriteCampaignOpts(context.Background(), env2, dir, WriteOptions{Resume: true, Compress: true}); err != nil {
		t.Fatal(err)
	}
	for _, name := range man1.Files {
		if mtime(name).Equal(past) {
			t.Fatalf("option change did not rewrite %s", name)
		}
	}
}

// TestAnalyzeStampsObservedDigest pins the one contract both container
// readers share: the analysis hashes the bytes it decodes, and
// SourceDigest is that hash — the manifest's digest for an intact file,
// the damaged file's own digest after a bit flip (so a caller comparing
// it to the manifest sees the damage without a second pass), and empty
// when the file was cut short (mid-structure, or cleanly before its
// footer) and not every byte could be read.
func TestAnalyzeStampsObservedDigest(t *testing.T) {
	env, _, dir := instrumented(t, 2)
	wk := env.World.Cfg.FirstWeek
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, WeekFile(wk))
	v1 := filepath.Join(t.TempDir(), "week.sflow")
	mustWriteV1Week(t, env, wk, v1)

	observed := func(path string) string {
		t.Helper()
		snap, err := AnalyzeWeekSnapshot(context.Background(), env, path, wk)
		if err != nil {
			t.Fatal(err)
		}
		return snap.SourceDigest
	}
	onDisk := func(path string) string {
		t.Helper()
		d, err := FileDigestFS(vfs.Default, path)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	if got := observed(v2); got != man.Digests[0] {
		t.Fatalf("v2: analysis observed %s, manifest records %s", got, man.Digests[0])
	}
	if got := observed(v1); got == "" || got != onDisk(v1) {
		t.Fatalf("v1: analysis observed %q, file digest %s", got, onDisk(v1))
	}

	// A v2 file that ends cleanly where its footer should start — a
	// writer that never reached Close — is truncated too, even though
	// every byte that is there was read.
	data, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	footLen := int(binary.BigEndian.Uint32(data[len(data)-12:]))
	footerless := filepath.Join(t.TempDir(), "footerless.sflow")
	if err := os.WriteFile(footerless, data[:len(data)-12-footLen], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := observed(footerless); got != "" {
		t.Fatalf("footerless v2: analysis reported digest %s", got)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if snap, err := AnalyzeWeekSnapshot(cancelled, env, v2, wk); err == nil {
		t.Fatalf("cancelled analysis returned a snapshot (digest %q)", snap.SourceDigest)
	}

	if _, err := faultline.FlipFileBitFS(vfs.Default, v2, 4096); err != nil {
		t.Fatal(err)
	}
	if got := observed(v2); got == man.Digests[0] || got != onDisk(v2) {
		t.Fatalf("bit-flipped v2: analysis observed %s, file digest %s, manifest %s", got, onDisk(v2), man.Digests[0])
	}

	for _, path := range []string{v1, v2} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()*6/10); err != nil {
			t.Fatal(err)
		}
		if got := observed(path); got != "" {
			t.Fatalf("truncated %s: analysis reported digest %s", filepath.Base(path), got)
		}
	}
}
