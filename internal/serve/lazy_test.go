package serve

import (
	"bytes"
	"go/parser"
	"go/token"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ixplens/internal/snapshot"
	"ixplens/internal/vfs"
)

// TestLazySectionFaults: an opened week keeps its product sections in
// the file until first use. When the file changes under a cached week,
// /links and /visibility answer a typed 422 or 503 — never a 200 with
// other bytes — while /week and /servers, served from the server list
// copied at open, keep answering 200 with the same bytes. The failed
// read drops the week, so the next request opens the file again.
func TestLazySectionFaults(t *testing.T) {
	dir, _, snaps := minedCampaign(t, 2, 1500)
	weeks := make([]int, 0, len(snaps))
	for wk := range snaps {
		weeks = append(weeks, wk)
	}
	wk, other := min(weeks[0], weeks[1]), max(weeks[0], weeks[1])
	path := filepath.Join(dir, snapshot.FileName(wk))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	otherBytes, err := os.ReadFile(filepath.Join(dir, snapshot.FileName(other)))
	if err != nil {
		t.Fatal(err)
	}
	lp, err := snaps[wk].Links()
	if err != nil {
		t.Fatal(err)
	}
	linksPayload, err := lp.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	linksAt := bytes.Index(good, linksPayload)
	if linksAt < 0 {
		t.Fatal("links section not found in the snapshot file")
	}

	for _, tc := range []struct {
		name   string
		mutate func() error
	}{
		{"bit flip in links", func() error {
			b := bytes.Clone(good)
			b[linksAt+len(linksPayload)/2] ^= 0x04
			return os.WriteFile(path, b, 0o644)
		}},
		{"replaced by another week", func() error { return os.WriteFile(path, otherBytes, 0o644) }},
		{"deleted", func() error { return os.Remove(path) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := vfs.WriteFileAtomic(vfs.Default, path, good, ".snap-*"); err != nil {
				t.Fatal(err)
			}
			s, _ := openServer(t, dir, Config{})
			stable := []string{endpointPath("week", wk, 0), endpointPath("servers", wk, 5)}
			want := make(map[string][]byte)
			for _, p := range stable {
				code, body := serveGet(s, p)
				if code != 200 {
					t.Fatalf("%s: HTTP %d %s", p, code, body)
				}
				want[p] = body
			}
			if err := tc.mutate(); err != nil {
				t.Fatal(err)
			}
			for _, p := range stable {
				if code, body := serveGet(s, p); code != 200 || !bytes.Equal(body, want[p]) {
					t.Fatalf("%s after the file changed: HTTP %d, same bytes %v", p, code, bytes.Equal(body, want[p]))
				}
			}
			misses := s.m.CacheMisses.Value()
			for _, endpoint := range []string{"links", "visibility"} {
				code, body := serveGet(s, endpointPath(endpoint, wk, 5))
				if code != http.StatusUnprocessableEntity && code != http.StatusServiceUnavailable {
					t.Fatalf("/%s on a changed file: HTTP %d %s, want 422 or 503", endpoint, code, body)
				}
				if !bytes.Contains(body, []byte("snapshot")) && !bytes.Contains(body, []byte("not mined")) {
					t.Fatalf("/%s: untyped error %q", endpoint, body)
				}
			}
			// /links dropped the week; /visibility opened the file again.
			if n := s.m.CacheMisses.Value() - misses; n != 1 {
				t.Fatalf("%d cache misses after the failed section read, want 1 (the re-open)", n)
			}
			if s.cache.Has(wk) {
				t.Fatal("a week whose file changed stayed cached")
			}
			// The file is not this week's mined snapshot any more: every
			// endpoint now says so, and the other week is unaffected.
			if code, _ := serveGet(s, endpointPath("week", wk, 0)); code != http.StatusServiceUnavailable {
				t.Fatalf("/week after the re-open: HTTP %d, want 503", code)
			}
			if code, _ := serveGet(s, endpointPath("links", other, 5)); code != 200 {
				t.Fatalf("the other week's /links: HTTP %d", code)
			}
		})
	}
}

// TestServeImportsNoWorld: the serving package answers from snapshots
// alone; it must not import the world, the traffic generator or the
// analysis pipeline.
func TestServeImportsNoWorld(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{
		"ixplens/internal/pipeline": true,
		"ixplens/internal/netmodel": true,
		"ixplens/internal/traffic":  true,
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); forbidden[path] {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}
