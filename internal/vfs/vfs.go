// Package vfs is the filesystem seam every persistence path in the
// repository goes through: the capture block/campaign writers, the
// manifest and snapshot atomic writers, the supervisor's fsync'd
// journal and the serving layer's snapshot reads. The interface is
// deliberately small — exactly the operations those paths need — so a
// fault-injecting implementation (faultline.FS) can stand in for the
// real disk and every ENOSPC, short write, torn rename and lying fsync
// the production system must survive becomes a deterministic,
// reproducible test input instead of a 3am incident.
//
// The package also centralizes the crash-consistency idioms the
// persistence paths share: WriteFileAtomic (temp file in the target
// directory, write, fsync, close, rename, fsync the parent directory)
// and SyncDir (the parent-directory fsync without which a "durable"
// rename can vanish on power loss — POSIX only promises the rename is
// atomic, not that the directory entry has reached the platter).
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// ErrStorageFull is the typed out-of-space error the supervisor's
// degraded mode keys on. Real disks surface syscall.ENOSPC; injected
// quotas (faultline.FS) wrap this sentinel. Test with IsStorageFull,
// which accepts both.
var ErrStorageFull = errors.New("vfs: storage full")

// IsStorageFull reports whether err is an out-of-space condition —
// either the injected ErrStorageFull or a real ENOSPC from the kernel
// (possibly wrapped in an *fs.PathError).
func IsStorageFull(err error) bool {
	return errors.Is(err, ErrStorageFull) || errors.Is(err, syscall.ENOSPC)
}

// File is one open file. It is the subset of *os.File the persistence
// paths use; *os.File satisfies it directly.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Seeker
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	Stat() (fs.FileInfo, error)
	// Sync flushes the file's data to stable storage. A nil return is
	// the durability acknowledgement the crash-consistency paths build
	// on — an implementation that lies here (faultline's SyncCorrupt)
	// models firmware that acknowledges and then loses the write.
	Sync() error
	Truncate(size int64) error
}

// FS is the filesystem operations seam. All paths are interpreted as by
// the os package. Implementations must be safe for concurrent use.
type FS interface {
	Open(name string) (File, error)
	Create(name string) (File, error)
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new temporary file in dir as os.CreateTemp
	// does; the atomic writers build their temp-then-rename on it.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string, perm fs.FileMode) error
	Stat(name string) (fs.FileInfo, error)
	Truncate(name string, size int64) error
	// SyncDir fsyncs the directory itself, making previously renamed or
	// created entries durable. Implementations should tolerate
	// filesystems that reject directory fsync (EINVAL/ENOTSUP).
	SyncDir(dir string) error
}

// OS is the passthrough implementation over the real filesystem.
type OS struct{}

// Default is the FS used when a caller does not thread an explicit one.
var Default FS = OS{}

// Open implements FS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements FS.
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// Stat implements FS.
func (OS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// Truncate implements FS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SyncDir implements FS. Directory fsync is how a rename or create
// becomes durable; filesystems that do not support it (some network and
// FUSE mounts return EINVAL or ENOTSUP) are tolerated — they offer no
// stronger primitive to fall back to.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		return nil
	}
	return err
}

// ReadFile reads the named file whole, like os.ReadFile but through the
// seam: ReadFileInto with no buffer to reuse.
func ReadFile(fsys FS, name string) ([]byte, error) {
	return ReadFileInto(fsys, name, nil)
}

// ReadFileInto reads the named file whole into buf's backing array and
// returns the file's bytes. As os.ReadFile does, it sizes the read from
// File.Stat (plus the byte the EOF read needs); when buf is too small
// for that it reads into one new buffer instead, and either grows only
// if the file turns out longer than Stat reported — so a snapshot or
// manifest read is at most one allocation instead of io.ReadAll's
// doubling from 512 bytes. buf may be nil.
func ReadFileInto(fsys FS, name string, buf []byte) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	size := 0
	if fi, err := f.Stat(); err == nil {
		if n := fi.Size(); n > 0 && int64(int(n)) == n {
			size = int(n)
		}
	}
	if size = max(size+1, 512); cap(buf) < size {
		buf = make([]byte, 0, size)
	}
	raw, rerr := readAll(f, buf[:0])
	if cerr := f.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		return nil, rerr
	}
	return raw, nil
}

// readAll is io.ReadAll appending to b.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// WriteFileAtomic writes data to path with full crash consistency: a
// temp file (tmpPattern, in path's directory) is written, fsynced and
// closed — all checked, so a full disk cannot leave a truncated file
// that parses as complete — then renamed over path, and the parent
// directory is fsynced so the rename itself survives power loss. On any
// failure the temp file is removed; path either keeps its old bytes or
// holds the complete new ones, never a mix.
func WriteFileAtomic(fsys FS, path string, data []byte, tmpPattern string) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	discard := func(e error) error {
		f.Close()
		fsys.Remove(tmp)
		return e
	}
	if n, werr := f.Write(data); werr != nil {
		return discard(werr)
	} else if n != len(data) {
		return discard(io.ErrShortWrite)
	}
	if err := f.Sync(); err != nil {
		return discard(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}
