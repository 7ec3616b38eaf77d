package capture

import (
	"context"
	"encoding/binary"
	"errors"
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

// TestGoldenCompressionEquivalence writes the same full 17-week campaign
// stored and DEFLATE-compressed and requires AnalyzeWeekSnapshot to
// produce identical results from either — the block codec must be
// invisible to the analysis.
func TestGoldenCompressionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-campaign golden comparison")
	}
	cfg := netmodel.Tiny()
	opts := traffic.Options{SamplesPerWeek: 1500, SamplingRate: 16384, SnapLen: 128}
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	storedDir, deflateDir := t.TempDir(), t.TempDir()
	storedCounts, err := WriteCampaignOpts(context.Background(), env, storedDir, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deflateCounts, err := WriteCampaignOpts(context.Background(), env, deflateDir, WriteOptions{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(storedCounts, deflateCounts) {
		t.Fatalf("datagram counts diverge: stored %v, compressed %v", storedCounts, deflateCounts)
	}

	man, err := ReadManifest(deflateDir)
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
		if man.Datagrams[i] != deflateCounts[i] {
			t.Fatalf("week %d: manifest says %d datagrams, writer reported %d", wk, man.Datagrams[i], deflateCounts[i])
		}
		got, err := FileDigestFS(vfs.Default, filepath.Join(deflateDir, man.Files[i]))
		if err != nil {
			t.Fatal(err)
		}
		if got != man.Digests[i] {
			t.Fatalf("week %d digest mismatch", wk)
		}

		s1, err := AnalyzeWeekSnapshot(context.Background(), env, filepath.Join(storedDir, man.Files[i]), wk)
		if err != nil {
			t.Fatalf("stored week %d: %v", wk, err)
		}
		s2, err := AnalyzeWeekSnapshot(context.Background(), env, filepath.Join(deflateDir, man.Files[i]), wk)
		if err != nil {
			t.Fatalf("compressed week %d: %v", wk, err)
		}
		if s1.Counts != s2.Counts {
			t.Fatalf("week %d cascade diverges: stored %+v, compressed %+v", wk, s1.Counts, s2.Counts)
		}
		if !reflect.DeepEqual(s1.Result, s2.Result) {
			t.Fatalf("week %d analysis diverges between codecs", wk)
		}
		if s1.Counts.Total == 0 || len(s1.Result.Servers) == 0 {
			t.Fatalf("week %d analysis empty", wk)
		}
	}
}

// TestV1CaptureRefused: a capture in the retired v1 stream container —
// the magic, then length-prefixed datagrams — fails the analysis with
// sflow.ErrBadMagic, which the supervisor classes as permanent, instead
// of being read. An empty or short file fails with a read error instead,
// which stays transient.
func TestV1CaptureRefused(t *testing.T) {
	env, _, _ := instrumented(t, 2)
	wk := env.World.Cfg.FirstWeek
	v1 := []byte("IXPSFLW1")
	if _, err := env.EachDatagram(context.Background(), wk, func(d *sflow.Datagram) error {
		off := len(v1)
		v1 = d.AppendEncode(append(v1, 0, 0, 0, 0))
		binary.BigEndian.PutUint32(v1[off:], uint32(len(v1)-off-4))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"v1": v1, "empty": nil, "short": []byte("IXPS")} {
		path := filepath.Join(t.TempDir(), name+".sflow")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := AnalyzeWeekSnapshot(context.Background(), env, path, wk)
		if got, want := errors.Is(err, sflow.ErrBadMagic), name == "v1"; err == nil || got != want {
			t.Fatalf("%s capture: err = %v, want ErrBadMagic %v", name, err, want)
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

// TestAnalyzeStampsObservedDigest pins the analysis's digest contract:
// it hashes the bytes it decodes, and
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

	fi, err := os.Stat(v2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(v2, fi.Size()*6/10); err != nil {
		t.Fatal(err)
	}
	if got := observed(v2); got != "" {
		t.Fatalf("truncated v2: analysis reported digest %s", got)
	}
}
