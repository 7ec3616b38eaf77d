// Storage-fault injection: a vfs.FS wrapper that degrades the disk the
// way faultline's datagram injector degrades the wire. Every fault
// decision is a pure function of (seed, path hash, operation kind,
// offset-or-index), so a chaos run over the same campaign reproduces
// the same ENOSPC, the same short write and the same torn rename —
// keying decisions on byte offsets (not a global op counter) keeps the
// schedule deterministic even when the parallel block reader issues
// ReadAt calls concurrently.
package faultline

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"ixplens/internal/randutil"
	"ixplens/internal/vfs"
)

// Injected storage errors, testable with errors.Is.
var (
	// ErrInjectedIO marks a read or write failed by the injector — the
	// disk-tier analogue of a bit flip on the wire. Transient: retrying
	// the operation (a fresh draw at a fresh offset) can succeed.
	ErrInjectedIO = errors.New("faultline: injected I/O error")
	// ErrTornRename marks a rename the injector "crashed" before: the
	// temp file was written durably but never linked over its target,
	// exactly the window a power loss between write and rename leaves.
	// The source file survives as stale litter (its cleanup is
	// suppressed once, as the crashed process's cleanup would be).
	ErrTornRename = errors.New("faultline: injected torn rename (crash before rename)")
)

// FS operation kinds, salts for the fault draws.
const (
	fsOpRead = iota + 1
	fsOpWrite
	fsOpSync
	fsOpRename
)

// FSConfig describes the storage fault mix. Each rate is a per-decision
// probability in [0, 1]; unlike the datagram injector's single-draw
// design, the operations are distinct (a write cannot also be a
// rename), so the rates are independent.
type FSConfig struct {
	// Seed fixes the fault schedule. Same seed, same operations → same
	// faults, byte for byte.
	Seed uint64

	// Quota, when positive, is the total write-byte budget: once the FS
	// has accepted this many bytes, further writes fail with an error
	// wrapping vfs.ErrStorageFull (after a realistic partial write of
	// whatever budget remains). AddQuota frees space at runtime, the way
	// an operator clearing a full disk does.
	Quota int64

	// ShortWrite is the fraction of writes cut to a seeded prefix; the
	// cut write returns the partial count and an ErrInjectedIO.
	ShortWrite float64
	// WriteErr is the fraction of writes failed whole (EIO-class).
	WriteErr float64
	// ReadErr is the fraction of reads failed (EIO-class). Decisions key
	// on the read offset, so concurrent readers draw reproducibly.
	ReadErr float64
	// SyncFail is the fraction of fsyncs that report failure (the data
	// may or may not be durable — callers must treat it as not).
	SyncFail float64
	// SyncCorrupt is the fraction of fsyncs that report success and then
	// corrupt one seeded bit of the file — firmware that acknowledges a
	// flush it later loses. The lie is only caught by reading back.
	SyncCorrupt float64
	// TornRename is the fraction of renames crashed between the durable
	// temp write and the link: the rename fails, the target keeps its
	// old bytes, and the source is left behind as stale temp litter.
	TornRename float64
}

// Validate rejects impossible storage fault mixes.
func (c *FSConfig) Validate() error {
	for _, r := range []float64{c.ShortWrite, c.WriteErr, c.ReadErr, c.SyncFail, c.SyncCorrupt, c.TornRename} {
		if r < 0 || r > 1 {
			return fmt.Errorf("faultline: fs fault rate %v outside [0,1]", r)
		}
	}
	if c.Quota < 0 {
		return fmt.Errorf("faultline: negative fs quota %d", c.Quota)
	}
	return nil
}

// Active reports whether the config injects any storage fault at all.
func (c *FSConfig) Active() bool {
	if c == nil {
		return false
	}
	return c.Quota > 0 || c.ShortWrite > 0 || c.WriteErr > 0 || c.ReadErr > 0 ||
		c.SyncFail > 0 || c.SyncCorrupt > 0 || c.TornRename > 0
}

// FSStats counts what the storage injector actually did. All fields are
// atomics: chaos tests read them while a campaign is still running.
type FSStats struct {
	ShortWrites  atomic.Int64
	WriteErrs    atomic.Int64
	ReadErrs     atomic.Int64
	SyncFails    atomic.Int64
	SyncCorrupts atomic.Int64
	TornRenames  atomic.Int64
	NoSpace      atomic.Int64
}

// Total sums every injected fault.
func (s *FSStats) Total() int64 {
	return s.ShortWrites.Load() + s.WriteErrs.Load() + s.ReadErrs.Load() +
		s.SyncFails.Load() + s.SyncCorrupts.Load() + s.TornRenames.Load() + s.NoSpace.Load()
}

// String summarizes the tally for logs.
func (s *FSStats) String() string {
	return fmt.Sprintf("fsfaults{short=%d werr=%d rerr=%d syncfail=%d synccorrupt=%d torn=%d nospace=%d}",
		s.ShortWrites.Load(), s.WriteErrs.Load(), s.ReadErrs.Load(),
		s.SyncFails.Load(), s.SyncCorrupts.Load(), s.TornRenames.Load(), s.NoSpace.Load())
}

// FS wraps an inner vfs.FS with the deterministic storage fault model.
// Safe for concurrent use when the inner FS is.
type FS struct {
	inner vfs.FS
	cfg   FSConfig
	Stats FSStats

	// written is the cumulative accepted write-byte count the quota
	// meters; extra is budget freed at runtime via AddQuota.
	written atomic.Int64
	extra   atomic.Int64

	mu sync.Mutex
	// torn holds source paths of torn renames whose next Remove is
	// suppressed (the simulated crash killed the cleanup), leaving the
	// temp file behind as the stale litter a real crash strands.
	torn map[string]bool
	// renames counts renames per destination path, salting their draws.
	renames map[string]uint64
	// opens counts opens per path. The count salts each handle's fault
	// stream: a REWRITE of the same file draws fresh faults, so a
	// deterministic retry is not condemned to the identical failure
	// forever — while the schedule as a whole stays a pure function of
	// (seed, operation history), which is itself deterministic for a
	// seeded campaign.
	opens map[string]uint64
}

// NewFS builds a fault-injecting FS over inner (vfs.Default when nil).
func NewFS(inner vfs.FS, cfg FSConfig) *FS {
	if inner == nil {
		inner = vfs.Default
	}
	return &FS{
		inner:   inner,
		cfg:     cfg,
		torn:    make(map[string]bool),
		renames: make(map[string]uint64),
		opens:   make(map[string]uint64),
	}
}

// AddQuota frees n bytes of write budget — the injected equivalent of
// an operator deleting files from a full disk. No-op when the config
// has no quota.
func (f *FS) AddQuota(n int64) {
	if n > 0 {
		f.extra.Add(n)
	}
}

// QuotaRemaining reports the bytes of write budget left (0 when
// exhausted); -1 means unmetered.
func (f *FS) QuotaRemaining() int64 {
	if f.cfg.Quota <= 0 {
		return -1
	}
	rem := f.cfg.Quota + f.extra.Load() - f.written.Load()
	if rem < 0 {
		rem = 0
	}
	return rem
}

// faultKey is the name a file goes by inside the fault model: the last
// two elements of its path (campaign directory base + file name). The
// leading elements are where a test's random temp root lives; a schedule
// that moved with them would not be a function of the seed alone. Fault
// streams hash the key, and injected errors name the file by it too —
// those messages are journaled by the supervisor, so a random-length
// path in them would shift every later journal offset, and with it the
// offset-keyed write draws and the position a lying fsync corrupts.
func faultKey(name string) string {
	return filepath.Base(filepath.Dir(name)) + "/" + filepath.Base(name)
}

// pathHash keys a file's fault stream. Hashing the name (rather than a
// handle counter) keeps the schedule stable across re-opens.
func pathHash(name string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, faultKey(name))
	return randutil.SplitMix64(h.Sum64())
}

// draw yields the uniform variate for one (path, op, index) decision.
func (f *FS) draw(ph uint64, op int, index uint64) float64 {
	return randutil.HashUnit(f.cfg.Seed, ph, uint64(op), index)
}

// handleKey derives a handle's fault-stream key from the path and its
// open ordinal (see FS.opens).
func (f *FS) handleKey(name string) uint64 {
	f.mu.Lock()
	n := f.opens[name]
	f.opens[name] = n + 1
	f.mu.Unlock()
	return randutil.Hash64(f.cfg.Seed, pathHash(name), n)
}

// wrap builds the fault-injecting file handle; name keys its fault
// stream (see faultKey).
func (f *FS) wrap(file vfs.File, name string) vfs.File {
	return &faultFile{File: file, fs: f, key: faultKey(name), ph: f.handleKey(name)}
}

// Open implements vfs.FS.
func (f *FS) Open(name string) (vfs.File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(file, name), nil
}

// Create implements vfs.FS.
func (f *FS) Create(name string) (vfs.File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(file, name), nil
}

// OpenFile implements vfs.FS.
func (f *FS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f.wrap(file, name), nil
}

// CreateTemp implements vfs.FS. The fault stream keys on the pattern
// (plus its open ordinal), not the randomized final name, so temp
// writes draw reproducibly.
func (f *FS) CreateTemp(dir, pattern string) (vfs.File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f.wrap(file, filepath.Join(dir, pattern)), nil
}

// Rename implements vfs.FS, injecting torn renames.
func (f *FS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	n := f.renames[newpath]
	f.renames[newpath] = n + 1
	f.mu.Unlock()
	if f.draw(pathHash(newpath), fsOpRename, n) < f.cfg.TornRename {
		f.Stats.TornRenames.Add(1)
		f.mu.Lock()
		f.torn[oldpath] = true
		f.mu.Unlock()
		// oldpath is a randomly named temp file; see faultKey.
		return fmt.Errorf("faultline: rename onto %s: %w", faultKey(newpath), ErrTornRename)
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements vfs.FS. The first Remove of a torn rename's source
// is suppressed — the simulated crash happened before any cleanup ran,
// so the stale temp must survive for the litter sweep to find.
func (f *FS) Remove(name string) error {
	f.mu.Lock()
	if f.torn[name] {
		delete(f.torn, name)
		f.mu.Unlock()
		return nil
	}
	f.mu.Unlock()
	return f.inner.Remove(name)
}

// ReadDir implements vfs.FS.
func (f *FS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }

// MkdirAll implements vfs.FS.
func (f *FS) MkdirAll(path string, perm fs.FileMode) error { return f.inner.MkdirAll(path, perm) }

// Stat implements vfs.FS.
func (f *FS) Stat(name string) (fs.FileInfo, error) { return f.inner.Stat(name) }

// Truncate implements vfs.FS.
func (f *FS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

// SyncDir implements vfs.FS. Directory syncs pass through: the torn
// rename window is modelled at Rename itself.
func (f *FS) SyncDir(dir string) error { return f.inner.SyncDir(dir) }

// chargeQuota meters n bytes against the write budget, returning how
// many the "disk" accepts.
func (f *FS) chargeQuota(n int) int {
	if f.cfg.Quota <= 0 {
		return n
	}
	budget := f.cfg.Quota + f.extra.Load()
	used := f.written.Add(int64(n))
	over := used - budget
	if over <= 0 {
		return n
	}
	// Hand back what the budget could not cover so freed quota is not
	// consumed by bytes that never landed.
	f.written.Add(-min64(over, int64(n)))
	accepted := int64(n) - over
	if accepted < 0 {
		accepted = 0
	}
	return int(accepted)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// faultFile injects faults on one open handle. The write offset is
// tracked per handle (the persistence paths write sequentially), reads
// key on their file offset, syncs on a per-handle index.
type faultFile struct {
	vfs.File
	fs  *FS
	key string // the file's name in injected errors (see faultKey)
	ph  uint64

	mu    sync.Mutex
	pos   int64 // sequential read/write cursor, maintained by Read/Write/Seek
	syncs uint64
}

// injectedIO builds the EIO-class error for one op.
func injectedIO(op, key string) error {
	return &fs.PathError{Op: op, Path: key, Err: ErrInjectedIO}
}

// Read implements io.Reader with seeded EIO injection keyed on the
// current offset.
func (f *faultFile) Read(p []byte) (int, error) {
	f.mu.Lock()
	off := f.pos
	f.mu.Unlock()
	if len(p) > 0 && f.fs.draw(f.ph, fsOpRead, uint64(off)) < f.fs.cfg.ReadErr {
		f.fs.Stats.ReadErrs.Add(1)
		return 0, injectedIO("read", f.key)
	}
	n, err := f.File.Read(p)
	f.mu.Lock()
	f.pos += int64(n)
	f.mu.Unlock()
	return n, err
}

// ReadAt implements io.ReaderAt; keying on off keeps concurrent readers
// deterministic regardless of scheduling.
func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if len(p) > 0 && f.fs.draw(f.ph, fsOpRead, uint64(off)) < f.fs.cfg.ReadErr {
		f.fs.Stats.ReadErrs.Add(1)
		return 0, injectedIO("readat", f.key)
	}
	return f.File.ReadAt(p, off)
}

// Seek implements io.Seeker, tracking the cursor the read draws key on.
func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	n, err := f.File.Seek(offset, whence)
	if err == nil {
		f.mu.Lock()
		f.pos = n
		f.mu.Unlock()
	}
	return n, err
}

// Write implements io.Writer: quota first (ENOSPC accepts a realistic
// partial write of the remaining budget), then seeded short writes and
// whole-write failures keyed on the handle's byte offset.
func (f *faultFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	off := f.pos
	f.mu.Unlock()
	if len(p) > 0 {
		u := f.fs.draw(f.ph, fsOpWrite, uint64(off))
		switch {
		case u < f.fs.cfg.ShortWrite:
			f.fs.Stats.ShortWrites.Add(1)
			cut := int(randutil.Hash64(f.fs.cfg.Seed, f.ph, uint64(off), 1) % uint64(len(p)))
			n, err := f.writeQuota(p[:cut])
			if err != nil {
				return n, err
			}
			return n, fmt.Errorf("faultline: short write %d of %d bytes at %s:%d: %w",
				n, len(p), f.key, off, ErrInjectedIO)
		case u < f.fs.cfg.ShortWrite+f.fs.cfg.WriteErr:
			f.fs.Stats.WriteErrs.Add(1)
			return 0, injectedIO("write", f.key)
		}
	}
	n, err := f.writeQuota(p)
	if err != nil || n < len(p) {
		if err == nil {
			err = io.ErrShortWrite
		}
		return n, err
	}
	return n, nil
}

// writeQuota performs the metered write of p, failing with a
// storage-full error once the budget is gone.
func (f *faultFile) writeQuota(p []byte) (int, error) {
	accepted := f.fs.chargeQuota(len(p))
	n := 0
	var err error
	if accepted > 0 {
		n, err = f.File.Write(p[:accepted])
		f.mu.Lock()
		f.pos += int64(n)
		f.mu.Unlock()
		if err != nil {
			return n, err
		}
	}
	if accepted < len(p) {
		f.fs.Stats.NoSpace.Add(1)
		return n, fmt.Errorf("faultline: write %s: quota exhausted after %d bytes: %w",
			f.key, f.fs.written.Load(), vfs.ErrStorageFull)
	}
	return n, err
}

// WriteAt implements io.WriterAt with the same write fault draws.
func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if len(p) > 0 {
		u := f.fs.draw(f.ph, fsOpWrite, uint64(off))
		if u < f.fs.cfg.ShortWrite+f.fs.cfg.WriteErr {
			f.fs.Stats.WriteErrs.Add(1)
			return 0, injectedIO("writeat", f.key)
		}
	}
	accepted := f.fs.chargeQuota(len(p))
	if accepted < len(p) {
		f.fs.Stats.NoSpace.Add(1)
		return 0, fmt.Errorf("faultline: writeat %s: %w", f.key, vfs.ErrStorageFull)
	}
	return f.File.WriteAt(p, off)
}

// Sync implements the durability acknowledgement with two failure
// modes: an honest failure (SyncFail — the caller must assume nothing
// landed) and a lie (SyncCorrupt — success is reported, then one seeded
// bit of the file is flipped, the write-back loss only a read-back
// digest can catch).
func (f *faultFile) Sync() error {
	f.mu.Lock()
	n := f.syncs
	f.syncs++
	f.mu.Unlock()
	u := f.fs.draw(f.ph, fsOpSync, n)
	switch {
	case u < f.fs.cfg.SyncFail:
		f.fs.Stats.SyncFails.Add(1)
		return injectedIO("sync", f.key)
	case u < f.fs.cfg.SyncFail+f.fs.cfg.SyncCorrupt:
		if err := f.File.Sync(); err != nil {
			return err
		}
		if f.corruptOneBit(n) {
			f.fs.Stats.SyncCorrupts.Add(1)
		}
		return nil // the lie: acknowledged, then lost
	}
	return f.File.Sync()
}

// corruptOneBit flips one seeded bit of the file through a separate
// read-write handle on the inner FS (the faulted handle may be
// write-only, as the journal's is). Reports whether a bit was flipped.
func (f *faultFile) corruptOneBit(syncIdx uint64) bool {
	fi, err := f.File.Stat()
	if err != nil || fi.Size() == 0 {
		return false
	}
	rw, err := f.fs.inner.OpenFile(f.Name(), os.O_RDWR, 0)
	if err != nil {
		return false
	}
	defer rw.Close()
	key := randutil.Hash64(f.fs.cfg.Seed, f.ph, syncIdx, 3)
	off := int64(key % uint64(fi.Size()))
	var b [1]byte
	if _, err := rw.ReadAt(b[:], off); err != nil {
		return false
	}
	b[0] ^= 1 << (randutil.SplitMix64(key) % 8)
	_, err = rw.WriteAt(b[:], off)
	return err == nil
}
