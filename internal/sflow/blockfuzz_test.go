package sflow_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"testing"
	"time"

	"ixplens/internal/faultline"
	"ixplens/internal/sflow"
)

// fuzzSeedCapture builds a small valid v2 capture for the fuzz corpus.
func fuzzSeedCapture(tb testing.TB, compress bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	bw, err := sflow.NewBlockWriter(&buf, compress)
	if err != nil {
		tb.Fatal(err)
	}
	d := &sflow.Datagram{
		AgentAddr:   [4]byte{10, 0, 0, 1},
		SequenceNum: 1,
		Flows: []sflow.FlowSample{{
			SamplingRate: 16384,
			HasRaw:       true,
			Raw: sflow.RawPacketHeader{
				Protocol:    sflow.HeaderProtoEthernet,
				FrameLength: 1514,
				Header:      bytes.Repeat([]byte{0xAB, 2, 3, 4}, 16),
			},
		}},
	}
	for i := 0; i < 120; i++ {
		d.SequenceNum = uint32(i + 1)
		if err := bw.WriteDatagram(d); err != nil {
			tb.Fatal(err)
		}
		if i%17 == 0 {
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

// FuzzBlockReader throws arbitrary bytes — seeded with valid captures
// mangled by faultline's truncate and bit-flip mutators — at both v2
// readers. The contract under any input: no panic, no hang, every
// datagram handed back came from a checksummed block, and the parallel
// reader's digest is the input's sha256 exactly when it reached io.EOF.
func FuzzBlockReader(f *testing.F) {
	for _, compress := range []bool{false, true} {
		valid := fuzzSeedCapture(f, compress)
		f.Add(valid)
		for _, key := range []uint64{3, 7919, 1 << 40, 0xdeadbeef} {
			f.Add(append([]byte(nil), faultline.TruncateHeader(valid, key)...))
			f.Add(faultline.FlipHeaderBit(append([]byte(nil), valid...), key))
		}
	}
	f.Add([]byte("IXPSFLW2"))
	f.Add([]byte("IXPSFLW2BLK2garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		watchdog := time.AfterFunc(5*time.Second, func() {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			panic("fuzz exec exceeded 5s:\n" + string(buf[:n]))
		})
		defer watchdog.Stop()
		const maxDatagrams = 1 << 20
		var d sflow.Datagram

		br, err := sflow.NewBlockReader(bytes.NewReader(data))
		if err == nil {
			for i := 0; ; i++ {
				if i > maxDatagrams {
					t.Fatalf("serial reader produced over %d datagrams from %d input bytes", maxDatagrams, len(data))
				}
				if err := br.Next(&d); err != nil {
					break
				}
			}
		}

		pr, err := sflow.NewParallelBlockReader(bytes.NewReader(data), 2)
		if err != nil {
			return
		}
		defer pr.Close()
		var term error
		for i := 0; term == nil; i++ {
			if i > maxDatagrams {
				t.Fatalf("parallel reader produced over %d datagrams from %d input bytes", maxDatagrams, len(data))
			}
			term = pr.Next(&d)
		}
		// Digest-on-read: a pass that reached io.EOF hashed exactly the
		// input, every byte of it; any other ending reports no digest.
		want := ""
		if term == io.EOF {
			sum := sha256.Sum256(data)
			want = hex.EncodeToString(sum[:])
		}
		if got := pr.Digest(); got != want {
			t.Fatalf("digest %q after terminal error %v, want %q", got, term, want)
		}
	})
}
