package sflow_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ixplens/internal/capture"
	"ixplens/internal/faultline"
	"ixplens/internal/sflow"
	"ixplens/internal/vfs"
)

// digestCapture builds a v2 capture of n datagrams spanning several
// blocks (one sealed every flushEvery datagrams) and several bufio
// reads, so a fault or a cut can land mid-file.
func digestCapture(tb testing.TB, n int, compress bool, flushEvery int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	bw, err := sflow.NewBlockWriter(&buf, compress)
	if err != nil {
		tb.Fatal(err)
	}
	hdr := make([]byte, 128)
	d := &sflow.Datagram{
		AgentAddr: [4]byte{10, 0, 0, 1},
		Flows: []sflow.FlowSample{{
			SamplingRate: 16384,
			HasRaw:       true,
			Raw:          sflow.RawPacketHeader{Protocol: sflow.HeaderProtoEthernet, FrameLength: 1514, Header: hdr},
		}},
	}
	for i := 0; i < n; i++ {
		d.SequenceNum = uint32(i + 1)
		binary.BigEndian.PutUint64(hdr, uint64(i)*0x9e3779b97f4a7c15)
		if err := bw.WriteDatagram(d); err != nil {
			tb.Fatal(err)
		}
		if (i+1)%flushEvery == 0 {
			if err := bw.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := bw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// stripFooter cuts a capture exactly at its footer — the file a writer
// that never reached Close leaves behind.
func stripFooter(tb testing.TB, data []byte) []byte {
	tb.Helper()
	footLen := int(binary.BigEndian.Uint32(data[len(data)-12:]))
	if string(data[len(data)-8:]) != "IXPSEND2" || footLen+12 > len(data) {
		tb.Fatal("capture has no footer to strip")
	}
	return data[:len(data)-12-footLen]
}

// readDigest drains path through the parallel reader over fsys and
// returns what Digest reports after the terminal Next, the datagram
// count, the stats and that terminal error.
func readDigest(t *testing.T, fsys vfs.FS, path string, workers int) (string, int, sflow.BlockStats, error) {
	t.Helper()
	f, err := fsys.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pr, err := sflow.NewParallelBlockReader(f, workers)
	if err != nil {
		return "", 0, sflow.BlockStats{}, err
	}
	defer pr.Close()
	if got := pr.Digest(); got != "" {
		t.Fatalf("digest %q before the first Next", got)
	}
	var d sflow.Datagram
	n := 0
	for {
		err := pr.Next(&d)
		if err != nil {
			return pr.Digest(), n, pr.Stats(), err
		}
		if got := pr.Digest(); got != "" {
			t.Fatalf("digest %q before io.EOF", got)
		}
		n++
	}
}

// TestDigestOnRead pins the digest-on-read contract: whenever the
// parallel reader reaches io.EOF, Digest is the sha256 of every byte of
// the file — what capture.FileDigestFS computes in its own pass — in
// index mode, scan mode, with compressed blocks, with a quarantined
// block, and with bytes after the end magic.
func TestDigestOnRead(t *testing.T) {
	const n = 6000
	plain := digestCapture(t, n, false, 700)
	flipped := append([]byte(nil), plain...)
	flipped[len(flipped)/2] ^= 0x10
	garbage := append(append([]byte(nil), plain...), "not part of the container"...)

	dir := t.TempDir()
	cases := []struct {
		name       string
		data       []byte
		datagrams  int // -1: fewer than n
		footer     bool
		quarantine bool
	}{
		{"index", plain, n, true, false},
		{"scan-footer-stripped", stripFooter(t, plain), n, false, false},
		{"compressed", digestCapture(t, n, true, 700), n, true, false},
		{"bit-flipped-block", flipped, -1, true, true},
		{"garbage-after-end-magic", garbage, n, true, false},
	}
	digests := make(map[string]string)
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name+".sflow")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, err := capture.FileDigestFS(vfs.Default, path)
		if err != nil {
			t.Fatal(err)
		}
		digests[tc.name] = want
		for _, workers := range []int{1, 3} {
			got, count, st, err := readDigest(t, vfs.Default, path, workers)
			if err != io.EOF {
				t.Fatalf("%s/w%d: terminal error %v, want io.EOF", tc.name, workers, err)
			}
			if got != want {
				t.Errorf("%s/w%d: Digest %s, FileDigestFS %s", tc.name, workers, got, want)
			}
			if (tc.datagrams >= 0 && count != tc.datagrams) || (tc.datagrams < 0 && (count == 0 || count >= n)) {
				t.Errorf("%s/w%d: %d datagrams", tc.name, workers, count)
			}
			if st.FooterVerified != tc.footer || (st.CorruptBlocks > 0) != tc.quarantine {
				t.Errorf("%s/w%d: stats %+v", tc.name, workers, st)
			}
		}
	}
	// Hashing runs to EOF, not to the footer: bytes after the end magic
	// change the digest though they change no datagram.
	if digests["garbage-after-end-magic"] == digests["index"] {
		t.Error("trailing bytes did not change the digest")
	}
	if digests["bit-flipped-block"] == digests["index"] {
		t.Error("flipped bit did not change the digest")
	}
}

// TestDigestEmptyUnlessEOF: a pass that did not read every byte has no
// digest — a file cut mid-structure, a read error mid-file, Close
// before EOF, and a consumer that stops on context cancel.
func TestDigestEmptyUnlessEOF(t *testing.T) {
	data := digestCapture(t, 6000, false, 700)
	dir := t.TempDir()
	path := filepath.Join(dir, "week.sflow")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := capture.FileDigestFS(vfs.Default, path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		cut := filepath.Join(dir, "cut.sflow")
		if err := os.WriteFile(cut, data[:len(data)*6/10], 0o644); err != nil {
			t.Fatal(err)
		}
		got, count, _, err := readDigest(t, vfs.Default, cut, 2)
		if !errors.Is(err, sflow.ErrTruncated) || count == 0 {
			t.Fatalf("%d datagrams, terminal error %v, want ErrTruncated after the intact prefix", count, err)
		}
		if got != "" {
			t.Fatalf("digest %q for a truncated file", got)
		}
	})

	// The fault FS keys read faults on (seed, file, offset): every seed
	// either lets the whole pass through, and then the digest is the
	// file's, or fails a read somewhere, and then there is none.
	t.Run("read-error", func(t *testing.T) {
		clean, failed := 0, 0
		for seed := uint64(1); seed <= 24; seed++ {
			ffs := faultline.NewFS(vfs.OS{}, faultline.FSConfig{Seed: seed, ReadErr: 0.08})
			got, _, _, err := readDigest(t, ffs, path, 2)
			switch {
			case err == io.EOF:
				clean++
				if got != want {
					t.Fatalf("seed %d: Digest %s, FileDigestFS %s", seed, got, want)
				}
			case errors.Is(err, faultline.ErrInjectedIO):
				failed++
				if got != "" {
					t.Fatalf("seed %d: digest %q after %v", seed, got, err)
				}
			default:
				t.Fatalf("seed %d: terminal error %v", seed, err)
			}
		}
		if clean == 0 || failed == 0 {
			t.Fatalf("%d clean and %d failed passes; the test needs both", clean, failed)
		}
	})

	open := func(t *testing.T) *sflow.ParallelBlockReader {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		pr, err := sflow.NewParallelBlockReader(f, 2)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}

	t.Run("close-before-eof", func(t *testing.T) {
		pr := open(t)
		var d sflow.Datagram
		if err := pr.Next(&d); err != nil {
			t.Fatal(err)
		}
		pr.Close()
		for pr.Next(&d) == nil {
		}
		if got := pr.Digest(); got != "" {
			t.Fatalf("digest %q after Close before EOF", got)
		}
	})

	t.Run("context-cancel", func(t *testing.T) {
		pr := open(t)
		defer pr.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var d sflow.Datagram
		for i := 0; ctx.Err() == nil; i++ {
			if err := pr.Next(&d); err != nil {
				t.Fatal(err)
			}
			if i == 100 {
				cancel()
			}
		}
		if got := pr.Digest(); got != "" {
			t.Fatalf("digest %q for a pass abandoned on cancel", got)
		}
	})
}
