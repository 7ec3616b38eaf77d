package vfs_test

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ixplens/internal/faultline"
	"ixplens/internal/vfs"
)

// understatFS is a vfs.FS whose open files report a Stat size smaller
// than their contents, as a file still being appended to does.
type understatFS struct{ vfs.OS }

func (u understatFS) Open(name string) (vfs.File, error) {
	f, err := u.OS.Open(name)
	if err != nil {
		return nil, err
	}
	return understatFile{f}, nil
}

type understatFile struct{ vfs.File }

func (f understatFile) Stat() (fs.FileInfo, error) {
	fi, err := f.File.Stat()
	if err != nil {
		return nil, err
	}
	return understatInfo{fi}, nil
}

type understatInfo struct{ fs.FileInfo }

func (i understatInfo) Size() int64 { return i.FileInfo.Size() / 3 }

// pattern is n bytes that differ at every offset a short or doubled read
// could confuse.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// TestReadFileExact: ReadFile returns a file's bytes exactly around the
// 512-byte minimum buffer and at snapshot size, keeps reading past a
// Stat that under-reports, and surfaces an injected read error.
func TestReadFileExact(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, 1, 511, 512, 513, 1 << 20} {
		want := pattern(n)
		path := filepath.Join(dir, "f"+strconv.Itoa(n))
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, fsys := range []vfs.FS{vfs.OS{}, understatFS{}} {
			got, err := vfs.ReadFile(fsys, path)
			if err != nil {
				t.Fatalf("%d bytes via %T: %v", n, fsys, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d bytes via %T: read %d bytes, differing", n, fsys, len(got))
			}
		}
	}

	if _, err := vfs.ReadFile(vfs.OS{}, filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist", err)
	}

	path := filepath.Join(dir, "f"+strconv.Itoa(1<<20))
	faulty := faultline.NewFS(vfs.OS{}, faultline.FSConfig{Seed: 1, ReadErr: 1})
	if _, err := vfs.ReadFile(faulty, path); !errors.Is(err, faultline.ErrInjectedIO) {
		t.Fatalf("faulty read: %v, want ErrInjectedIO", err)
	}
}

// memFS serves one in-memory file without allocating on Open, so
// testing.AllocsPerRun counts ReadFile's own allocations.
type memFS struct {
	vfs.OS
	f *memFile
}

func (m memFS) Open(string) (vfs.File, error) {
	m.f.off = 0
	return m.f, nil
}

type memFile struct {
	vfs.File // nil: only the methods below are called
	data     []byte
	off      int
	info     memInfo
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.off == len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) Stat() (fs.FileInfo, error) { return &f.info, nil }
func (f *memFile) Close() error               { return nil }

// memInfo is a file's Stat result, held by the file so Stat does not
// allocate.
type memInfo struct {
	fs.FileInfo // nil: only Size is called
	size        int64
}

func (i *memInfo) Size() int64 { return i.size }

// TestReadFileAllocs: a 1 MiB read is one buffer, not a chain of
// doublings.
func TestReadFileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	data := pattern(1 << 20)
	fsys := &memFS{f: &memFile{data: data, info: memInfo{size: int64(len(data))}}}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := vfs.ReadFile(fsys, "x"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("ReadFile of 1 MiB made %v allocations, want at most 2", allocs)
	}
}
