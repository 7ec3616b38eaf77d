package snapshot

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ixplens/internal/analysis"
	"ixplens/internal/vfs"
)

// memFS serves a fixed set of files from memory: enough of vfs.FS for
// OpenFileFS and the first-use reads of its sections.
type memFS map[string][]byte

func (m memFS) Open(name string) (vfs.File, error) {
	b, ok := m[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memFile{Reader: bytes.NewReader(b), name: name}, nil
}

func (memFS) Create(string) (vfs.File, error)                     { panic("read-only") }
func (memFS) OpenFile(string, int, fs.FileMode) (vfs.File, error) { panic("read-only") }
func (memFS) CreateTemp(string, string) (vfs.File, error)         { panic("read-only") }
func (memFS) Rename(string, string) error                         { panic("read-only") }
func (memFS) Remove(string) error                                 { panic("read-only") }
func (memFS) ReadDir(string) ([]fs.DirEntry, error)               { panic("unused") }
func (memFS) MkdirAll(string, fs.FileMode) error                  { panic("read-only") }
func (memFS) Stat(string) (fs.FileInfo, error)                    { panic("unused") }
func (memFS) Truncate(string, int64) error                        { panic("read-only") }
func (memFS) SyncDir(string) error                                { panic("read-only") }

type memFile struct {
	*bytes.Reader
	name string
}

func (f *memFile) Name() string                     { return f.name }
func (f *memFile) Stat() (fs.FileInfo, error)       { return memInfo(f.Size()), nil }
func (f *memFile) Close() error                     { return nil }
func (*memFile) Write([]byte) (int, error)          { panic("read-only") }
func (*memFile) WriteAt([]byte, int64) (int, error) { panic("read-only") }
func (*memFile) Sync() error                        { panic("read-only") }
func (*memFile) Truncate(int64) error               { panic("read-only") }

type memInfo int64

func (i memInfo) Size() int64      { return int64(i) }
func (memInfo) Name() string       { return "snap" }
func (memInfo) Mode() fs.FileMode  { return 0o444 }
func (memInfo) ModTime() time.Time { return time.Time{} }
func (memInfo) IsDir() bool        { return false }
func (memInfo) Sys() any           { return nil }

// checkOpenFileFSAgrees holds OpenFileFS to Open over the same bytes:
// it accepts exactly what Open accepts (opened is Open's week, nil when
// Open refused data), and an accepted week writes back the same
// container — its sections read from the file on first use.
func checkOpenFileFSAgrees(t *testing.T, data []byte, opened *Opened) {
	t.Helper()
	fromFile, err := OpenFileFS(memFS{"f": data}, "f")
	if (err == nil) != (opened != nil) {
		t.Fatalf("OpenFileFS error %v, Open accepted: %v", err, opened != nil)
	}
	if err != nil {
		return
	}
	want, werr := opened.appendEncode(nil)
	got, gerr := fromFile.appendEncode(nil)
	if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("OpenFileFS week re-encodes differently from Open's (errors %v, %v)", werr, gerr)
	}
}

// TestOpenFileFSSections: OpenFileFS leaves the product sections in the
// file and reads each on first use, so its week equals Open's; a section
// whose bytes change on disk after the open fails with ErrChecksum, a
// file that is gone with ErrReread — never a product decoded from other
// bytes — while the server list, copied at open, still answers.
func TestOpenFileFSSections(t *testing.T) {
	buf, err := AppendEncode(nil, synthetic())
	if err != nil {
		t.Fatal(err)
	}
	other := synthetic()
	other.links = decoded(1, &analysis.LinksProduct{Flows: []analysis.Flow{{Bytes: 1, Samples: 1}}})
	otherBuf, err := AppendEncode(nil, other)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	wantForced := forced(t, want)

	linksAt := bytes.Index(buf, mustEncode(t, synthetic().links.val))
	if linksAt < 0 {
		t.Fatal("links payload not found in the container")
	}
	for _, tc := range []struct {
		name    string
		mutate  func(path string) error
		wantErr error
	}{
		{"unchanged", func(string) error { return nil }, nil},
		{"bit flip in links", func(path string) error {
			b := bytes.Clone(buf)
			b[linksAt+5] ^= 0x10
			return os.WriteFile(path, b, 0o644)
		}, ErrChecksum},
		{"replaced by another week", func(path string) error { return os.WriteFile(path, otherBuf, 0o644) }, ErrChecksum},
		{"truncated", func(path string) error { return os.Truncate(path, int64(linksAt+1)) }, ErrReread},
		{"deleted", os.Remove, ErrReread},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), FileName(45))
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			o, err := OpenFileFS(vfs.Default, path)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.mutate(path); err != nil {
				t.Fatal(err)
			}
			links, err := o.Links()
			if tc.wantErr == nil {
				snap := o.Snapshot()
				if err != nil || !reflect.DeepEqual(forced(t, snap), wantForced) {
					t.Fatalf("opened week diverged from Decode's (links error %v)", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) || links != nil {
				t.Fatalf("Links() = %v, %v; want nil, %v", links, err, tc.wantErr)
			}
			if _, again := o.Links(); !errors.Is(again, tc.wantErr) {
				t.Fatalf("second Links() = %v, want %v", again, tc.wantErr)
			}
			if got := analysis.CountServers(o.Servers()).Servers; got != len(want.Result.Servers) {
				t.Fatalf("server list lost after the file changed: %d servers", got)
			}
		})
	}
}

// mustEncode is a product's section payload.
func mustEncode(t *testing.T, p analysis.Product) []byte {
	t.Helper()
	b, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
