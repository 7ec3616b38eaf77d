package faultline

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ixplens/internal/vfs"
)

// opLog drives a fixed serial script of operations against an FS and
// records every outcome, so two same-seed instances can be compared
// op for op. The script exercises write, read, sync, rename and remove
// across several paths.
func opLog(t *testing.T, fsys vfs.FS, dir string) []string {
	t.Helper()
	var log []string
	note := func(op string, err error) {
		switch {
		case err == nil:
			log = append(log, op+":ok")
		case errors.Is(err, ErrInjectedIO):
			log = append(log, op+":eio")
		case errors.Is(err, ErrTornRename):
			log = append(log, op+":torn")
		case vfs.IsStorageFull(err):
			log = append(log, op+":nospace")
		default:
			log = append(log, op+":err")
		}
	}
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < 8; i++ {
		path := filepath.Join(dir, "f"+string(rune('a'+i)))
		tmp := path + ".tmp"
		f, err := fsys.Create(tmp)
		note("create", err)
		if err != nil {
			continue
		}
		for j := 0; j < 4; j++ {
			_, werr := f.Write(payload)
			note("write", werr)
		}
		note("sync", f.Sync())
		note("close", f.Close())
		note("rename", fsys.Rename(tmp, path))
		if g, err := fsys.Open(path); err == nil {
			buf := make([]byte, 64)
			for {
				_, rerr := g.Read(buf)
				if rerr == io.EOF {
					break
				}
				note("read", rerr)
				if rerr != nil {
					break
				}
			}
			g.Close()
		}
	}
	return log
}

// TestFSDeterministic: same seed, same op script, same fault schedule —
// byte for byte — and a different seed produces a different one.
func TestFSDeterministic(t *testing.T) {
	cfg := FSConfig{
		Seed:       42,
		ShortWrite: 0.1,
		WriteErr:   0.05,
		ReadErr:    0.1,
		SyncFail:   0.2,
		TornRename: 0.3,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Identical directory names keep the path-hashed draws identical.
	root := t.TempDir()
	dirA := filepath.Join(root, "a", "same")
	dirB := filepath.Join(root, "b", "same")
	// The draws hash the full path, so use a relative-identical layout:
	// chdir into each parent so the script sees the same path strings.
	for _, d := range []string{dirA, dirB} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	run := func(parent string, cfg FSConfig) []string {
		if err := os.Chdir(parent); err != nil {
			t.Fatal(err)
		}
		defer os.Chdir(wd)
		return opLog(t, NewFS(vfs.OS{}, cfg), "same")
	}
	logA := run(filepath.Join(root, "a"), cfg)
	logB := run(filepath.Join(root, "b"), cfg)
	if strings.Join(logA, ",") != strings.Join(logB, ",") {
		t.Fatalf("same seed, different fault schedule:\nA: %v\nB: %v", logA, logB)
	}
	faults := 0
	for _, op := range logA {
		if !strings.HasSuffix(op, ":ok") {
			faults++
		}
	}
	if faults == 0 {
		t.Fatalf("fault rates injected nothing across %d ops", len(logA))
	}

	other := cfg
	other.Seed = 43
	logC := run(filepath.Join(root, "a"), other)
	if strings.Join(logA, ",") == strings.Join(logC, ",") {
		t.Fatalf("different seeds produced identical %d-op fault schedule", len(logA))
	}
}

// TestFSQuota: writes fail with a storage-full error once the budget is
// gone, partial writes consume only what landed, and AddQuota revives
// the disk.
func TestFSQuota(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFS(vfs.OS{}, FSConfig{Seed: 7, Quota: 100})
	path := filepath.Join(dir, "q.bin")
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write(make([]byte, 80)); n != 80 || err != nil {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	n, err := f.Write(make([]byte, 80))
	if !vfs.IsStorageFull(err) {
		t.Fatalf("expected storage-full, got n=%d err=%v", n, err)
	}
	if n != 20 {
		t.Fatalf("partial write should land remaining budget 20, wrote %d", n)
	}
	if rem := fsys.QuotaRemaining(); rem != 0 {
		t.Fatalf("remaining = %d, want 0", rem)
	}
	if _, err := f.Write([]byte("x")); !vfs.IsStorageFull(err) {
		t.Fatalf("write on full disk: %v", err)
	}
	fsys.AddQuota(1000)
	if n, err := f.Write(make([]byte, 60)); n != 60 || err != nil {
		t.Fatalf("write after AddQuota: n=%d err=%v", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fsys.Stats.NoSpace.Load() < 2 {
		t.Fatalf("NoSpace stat = %d, want >= 2", fsys.Stats.NoSpace.Load())
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() != 160 {
		t.Fatalf("final size %v, err %v; want 160 accepted bytes", fi.Size(), err)
	}
}

// TestFSTornRename: the rename fails with ErrTornRename, the target
// keeps its old bytes, the source survives its first Remove as stale
// litter, and a later sweep can actually delete it.
func TestFSTornRename(t *testing.T) {
	dir := t.TempDir()
	// TornRename: 1 guarantees the injection regardless of seed.
	fsys := NewFS(vfs.OS{}, FSConfig{Seed: 1, TornRename: 1})
	target := filepath.Join(dir, "data")
	if err := os.WriteFile(target, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ".data-tmp")
	if err := os.WriteFile(tmp, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := fsys.Rename(tmp, target)
	if !errors.Is(err, ErrTornRename) {
		t.Fatalf("rename error = %v, want ErrTornRename", err)
	}
	if raw, _ := os.ReadFile(target); string(raw) != "old" {
		t.Fatalf("target changed to %q despite torn rename", raw)
	}
	// The atomic-writer cleanup path calls Remove(tmp); the simulated
	// crash must suppress it once so the litter survives.
	if err := fsys.Remove(tmp); err != nil {
		t.Fatalf("suppressed remove returned %v", err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("stale temp litter should survive the crashed cleanup: %v", err)
	}
	// A later sweep (fresh intent) really deletes it.
	if err := fsys.Remove(tmp); err != nil {
		t.Fatalf("sweep remove: %v", err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("litter still present after sweep: %v", err)
	}
	if fsys.Stats.TornRenames.Load() != 1 {
		t.Fatalf("TornRenames stat = %d", fsys.Stats.TornRenames.Load())
	}
}

// TestFSSyncCorrupt: a lying fsync reports success and flips exactly
// one bit — only a read-back catches it.
func TestFSSyncCorrupt(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFS(vfs.OS{}, FSConfig{Seed: 5, SyncCorrupt: 1})
	path := filepath.Join(dir, "c.bin")
	want := []byte("the quick brown fox jumps over the lazy dog")
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("lying sync must report success, got %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range want {
		diff += popcount8(want[i] ^ got[i])
	}
	if diff != 1 {
		t.Fatalf("sync-corrupt flipped %d bits, want exactly 1", diff)
	}
	if fsys.Stats.SyncCorrupts.Load() != 1 {
		t.Fatalf("SyncCorrupts stat = %d", fsys.Stats.SyncCorrupts.Load())
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// TestFSReadAtOrderIndependent: ReadAt fault decisions key on the
// offset, so issue order does not change the schedule — the property
// that keeps the parallel block reader reproducible.
func TestFSReadAtOrderIndependent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.bin")
	if err := os.WriteFile(path, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	offsets := []int64{0, 512, 1024, 1536, 2048, 2560, 3072, 3584}
	probe := func(order []int64) map[int64]bool {
		fsys := NewFS(vfs.OS{}, FSConfig{Seed: 99, ReadErr: 0.5})
		f, err := fsys.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		out := make(map[int64]bool)
		buf := make([]byte, 16)
		for _, off := range order {
			_, err := f.ReadAt(buf, off)
			out[off] = errors.Is(err, ErrInjectedIO)
		}
		return out
	}
	fwd := probe(offsets)
	rev := make([]int64, len(offsets))
	for i, off := range offsets {
		rev[len(offsets)-1-i] = off
	}
	bwd := probe(rev)
	anyFault := false
	for _, off := range offsets {
		if fwd[off] != bwd[off] {
			t.Fatalf("offset %d: fault %v forward but %v reversed", off, fwd[off], bwd[off])
		}
		anyFault = anyFault || fwd[off]
	}
	if !anyFault {
		t.Fatal("0.5 read-error rate injected nothing across 8 offsets")
	}
}

// TestFSValidate rejects out-of-range rates and negative quotas.
func TestFSValidate(t *testing.T) {
	bad := []FSConfig{
		{ReadErr: -0.1},
		{ShortWrite: 1.5},
		{Quota: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", cfg)
		}
	}
	good := FSConfig{Seed: 1, Quota: 10, ReadErr: 1, SyncFail: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected valid config: %v", err)
	}
	if !good.Active() {
		t.Error("Active() = false for a fault-bearing config")
	}
	var idle FSConfig
	if idle.Active() {
		t.Error("Active() = true for zero config")
	}
}

// TestFlipFileBitErrors: the hardened corruptor surfaces sync errors
// from the seam instead of dropping them.
func TestFlipFileBitErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.bin")
	if err := os.WriteFile(path, []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Through a sync-failing seam the corruption must report the error.
	fsys := NewFS(vfs.OS{}, FSConfig{Seed: 3, SyncFail: 1})
	if _, err := FlipFileBitFS(fsys, path, 12345); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("FlipFileBitFS over failing sync: %v, want ErrInjectedIO", err)
	}
	// Plain seam still works and really flips a bit.
	before, _ := os.ReadFile(path)
	off, err := FlipFileBitFS(vfs.Default, path, 12345)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(path)
	if before[off] == after[off] {
		t.Fatal("FlipFileBitFS did not damage the byte it reported")
	}
	// TruncateFileTailFS through the seam.
	n, err := TruncateFileTailFS(vfs.OS{}, path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != n {
		t.Fatalf("truncated to %d, stat says %d", n, fi.Size())
	}
}
