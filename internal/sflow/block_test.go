package sflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// blockTestDatagram builds the i-th of a deterministic, varied sequence
// of datagrams: different agents, growing headers, interleaved counter
// samples — enough shape to exercise framing, padding and compression.
func blockTestDatagram(i int) *Datagram {
	hdr := make([]byte, 20+(i%97))
	for j := range hdr {
		hdr[j] = byte(i + j*7)
	}
	d := &Datagram{
		AgentAddr:   [4]byte{10, 0, byte(i % 5), byte(i % 251)},
		SubAgentID:  uint32(i % 3),
		SequenceNum: uint32(i + 1),
		Uptime:      uint32(1000 * i),
		Flows: []FlowSample{{
			SequenceNum:   uint32(i),
			SourceIDIndex: uint32(i % 64),
			SamplingRate:  16384,
			SamplePool:    uint32(i) * 16384,
			InputIf:       uint32(i % 48),
			OutputIf:      uint32((i + 7) % 48),
			HasRaw:        true,
			Raw: RawPacketHeader{
				Protocol:    HeaderProtoEthernet,
				FrameLength: uint32(64 + i%1450),
				Header:      hdr,
			},
			HasSwitch: true,
			Switch:    ExtendedSwitch{SrcVLAN: uint32(i % 7), DstVLAN: uint32(i % 11)},
		}},
	}
	if i%13 == 0 {
		d.Counters = []CounterSample{{
			SequenceNum:   uint32(i / 13),
			SourceIDIndex: uint32(i % 64),
			HasGeneric:    true,
			Generic:       GenericInterfaceCounters{IfIndex: uint32(i % 64), InOctets: uint64(i) * 999},
		}}
	}
	return d
}

// writeBlockCapture writes n deterministic datagrams into a v2 container,
// sealing a block every flushEvery datagrams (0 = only at target size),
// and returns the file bytes plus every datagram's encoding in order.
func writeBlockCapture(t *testing.T, n int, compress bool, flushEvery int) ([]byte, [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	bw, err := NewBlockWriter(&buf, compress)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < n; i++ {
		d := blockTestDatagram(i)
		want = append(want, d.AppendEncode(nil))
		if err := bw.WriteDatagram(d); err != nil {
			t.Fatal(err)
		}
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if bw.Count() != n {
		t.Fatalf("writer count = %d, want %d", bw.Count(), n)
	}
	return buf.Bytes(), want
}

// datagramReader is the Next method the serial and parallel block
// readers share.
type datagramReader interface {
	Next(d *Datagram) error
}

// drainEncoded reads r to its end, returning each datagram re-encoded
// (the decoded form aliases reader buffers, so encoding snapshots it).
func drainEncoded(r datagramReader) ([][]byte, error) {
	var got [][]byte
	var d Datagram
	for {
		err := r.Next(&d)
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			return got, err
		}
		got = append(got, d.AppendEncode(nil))
	}
}

func mustEqualEncodings(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d datagrams, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("datagram %d round-trip mismatch", i)
		}
	}
}

func TestBlockRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			data, want := writeBlockCapture(t, 500, compress, 37)
			br, err := NewBlockReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			got, err := drainEncoded(br)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualEncodings(t, got, want)
			st := br.Stats()
			if st.Datagrams != 500 || st.Blocks < 2 || st.CorruptBlocks != 0 {
				t.Fatalf("stats = %+v", st)
			}
			if !st.FooterVerified || st.Truncated {
				t.Fatalf("footer not verified or truncated: %+v", st)
			}
			if compress && st.DiskBytes >= st.RawBytes {
				t.Fatalf("compression did not shrink redundant payloads: %+v", st)
			}
		})
	}
}

func TestBlockParallelMatchesSerial(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("compress=%v/workers=%d", compress, workers), func(t *testing.T) {
				data, want := writeBlockCapture(t, 700, compress, 53)
				pr, err := NewParallelBlockReader(bytes.NewReader(data), workers)
				if err != nil {
					t.Fatal(err)
				}
				defer pr.Close()
				got, err := drainEncoded(pr)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualEncodings(t, got, want)
				st := pr.Stats()
				if st.Datagrams != 700 || st.CorruptBlocks != 0 || !st.FooterVerified {
					t.Fatalf("stats = %+v", st)
				}
			})
		}
	}
}

// TestBlockTruncationSweep cuts a capture at every stride-th byte and
// checks the contract at each cut: the reader must deliver a strict
// prefix of the original datagrams and then either finish cleanly with
// the Truncated flag, or fail with an error wrapping ErrTruncated —
// never garbage, never a panic.
func TestBlockTruncationSweep(t *testing.T) {
	data, want := writeBlockCapture(t, 300, true, 41)
	for cut := 8; cut < len(data); cut += 397 {
		check := func(name string, r datagramReader, stats func() BlockStats) {
			got, err := drainEncoded(r)
			if err != nil && !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut=%d %s: unexpected error %v", cut, name, err)
			}
			if len(got) > len(want) {
				t.Fatalf("cut=%d %s: decoded %d datagrams from a %d-datagram capture", cut, name, len(got), len(want))
			}
			mustEqualEncodings(t, got, want[:len(got)])
			if err == nil && !stats().Truncated {
				t.Fatalf("cut=%d %s: clean EOF on a cut file without Truncated", cut, name)
			}
		}
		br, err := NewBlockReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		check("serial", br, br.Stats)
		pr, err := NewParallelBlockReader(bytes.NewReader(data[:cut]), 2)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		check("parallel", pr, pr.Stats)
		pr.Close()
	}
}

// TestBlockTruncationAtBoundary removes exactly the footer: everything
// written before the crash must decode, with only the Truncated flag
// raised.
func TestBlockTruncationAtBoundary(t *testing.T) {
	data, want := writeBlockCapture(t, 200, false, 29)
	// Find the footer start from the self-describing tail.
	footLen := int(data[len(data)-12])<<24 | int(data[len(data)-11])<<16 |
		int(data[len(data)-10])<<8 | int(data[len(data)-9])
	cut := len(data) - 12 - footLen
	br, err := NewBlockReader(bytes.NewReader(data[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainEncoded(br)
	if err != nil {
		t.Fatalf("boundary truncation must be a clean degrade, got %v", err)
	}
	mustEqualEncodings(t, got, want)
	st := br.Stats()
	if !st.Truncated || st.FooterVerified {
		t.Fatalf("stats = %+v, want Truncated without FooterVerified", st)
	}
}

// TestBlockBitFlipQuarantine flips a single payload bit: the checksum
// must catch it, the block must be quarantined (not decoded as garbage),
// and every other block must still come through.
func TestBlockBitFlipQuarantine(t *testing.T) {
	data, want := writeBlockCapture(t, 400, true, 67)
	flipped := append([]byte(nil), data...)
	flipped[8+blockHeaderLen+11] ^= 0x10 // inside the first block's payload

	for _, mode := range []string{"serial", "parallel"} {
		var r datagramReader
		var stats func() BlockStats
		switch mode {
		case "serial":
			br, err := NewBlockReader(bytes.NewReader(flipped))
			if err != nil {
				t.Fatal(err)
			}
			r, stats = br, br.Stats
		case "parallel":
			pr, err := NewParallelBlockReader(bytes.NewReader(flipped), 3)
			if err != nil {
				t.Fatal(err)
			}
			defer pr.Close()
			r, stats = pr, pr.Stats
		}
		got, err := drainEncoded(r)
		if err != nil {
			t.Fatalf("%s: corrupt block must quarantine, not fail: %v", mode, err)
		}
		st := stats()
		if st.CorruptBlocks != 1 {
			t.Fatalf("%s: corrupt blocks = %d, want 1 (%+v)", mode, st.CorruptBlocks, st)
		}
		if st.QuarantinedDatagrams == 0 {
			t.Fatalf("%s: no datagrams quarantined (%+v)", mode, st)
		}
		// The surviving datagrams are exactly the tail after the first
		// (quarantined) block.
		lost := len(want) - len(got)
		if lost <= 0 {
			t.Fatalf("%s: nothing lost despite a corrupt block", mode)
		}
		mustEqualEncodings(t, got, want[lost:])
	}
}

// TestBlockHeaderFlipIndexedResync damages a block *header* length field
// — fatal to a sequential scan, which loses framing — and checks the
// footer-indexed parallel reader still quarantines just that block and
// resyncs at the next indexed offset.
func TestBlockHeaderFlipIndexedResync(t *testing.T) {
	data, want := writeBlockCapture(t, 400, false, 67)
	flipped := append([]byte(nil), data...)
	flipped[8+20] ^= 0x40 // first block's diskLen field

	pr, err := NewParallelBlockReader(bytes.NewReader(flipped), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	got, err := drainEncoded(pr)
	if err != nil {
		t.Fatalf("indexed reader must resync past a damaged header: %v", err)
	}
	st := pr.Stats()
	if !st.FooterVerified || st.CorruptBlocks != 1 || st.QuarantinedDatagrams != 67 {
		t.Fatalf("stats = %+v, want verified footer, 1 corrupt block, 67 quarantined", st)
	}
	mustEqualEncodings(t, got, want[len(want)-len(got):])
}

// TestReadersRejectForeignMagic pins that each container reader refuses
// the other format's bytes: callers pick the reader by CaptureFormat,
// and a wrong pick must fail at the header, not mid-stream.
func TestReadersRejectForeignMagic(t *testing.T) {
	v1 := v1Capture(blockTestDatagram(0))
	v2, _ := writeBlockCapture(t, 1, false, 0)

	if _, err := NewBlockReader(bytes.NewReader(v1)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("block reader on v1 bytes: %v", err)
	}
	if _, err := NewStreamReader(bytes.NewReader(v2)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("stream reader on v2 bytes: %v", err)
	}
	if _, err := NewBlockReader(bytes.NewReader([]byte("NOTACAPTstuff"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage magic: %v", err)
	}
}

func TestCaptureFormat(t *testing.T) {
	if got := CaptureFormat(streamMagic); got != 1 {
		t.Fatalf("v1 magic = %d", got)
	}
	if got := CaptureFormat(blockMagic); got != 2 {
		t.Fatalf("v2 magic = %d", got)
	}
	if got := CaptureFormat([8]byte{1, 2, 3}); got != 0 {
		t.Fatalf("junk magic = %d", got)
	}
}

func TestBlockWriterEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	bw, err := NewBlockWriter(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	br, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var d Datagram
	if err := br.Next(&d); err != io.EOF {
		t.Fatalf("empty capture Next = %v, want EOF", err)
	}
	if st := br.Stats(); !st.FooterVerified || st.Truncated || st.Datagrams != 0 {
		t.Fatalf("stats = %+v", st)
	}
	pr, err := NewParallelBlockReader(bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if err := pr.Next(&d); err != io.EOF {
		t.Fatalf("empty capture parallel Next = %v, want EOF", err)
	}
}

func TestStreamReaderTruncatedTyped(t *testing.T) {
	var ds []*Datagram
	for i := 0; i < 20; i++ {
		ds = append(ds, blockTestDatagram(i))
	}
	data := v1Capture(ds...)
	for _, cut := range []int{len(data) - 3, len(data) / 2, 10} {
		sr, err := NewStreamReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		_, err = drainEncoded(sr)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestParallelBlockReaderClose(t *testing.T) {
	data, _ := writeBlockCapture(t, 300, false, 31)
	pr, err := NewParallelBlockReader(bytes.NewReader(data), 2)
	if err != nil {
		t.Fatal(err)
	}
	var d Datagram
	if err := pr.Next(&d); err != nil {
		t.Fatal(err)
	}
	if err := pr.Close(); err != nil {
		t.Fatal(err)
	}
	// Next after Close terminates rather than hanging on a dead pool.
	for i := 0; i < 10_000; i++ {
		if err := pr.Next(&d); err != nil {
			return
		}
	}
	t.Fatal("Next kept succeeding after Close")
}

// writeWire appends an already-encoded datagram to bw's pending block,
// for wire shapes AppendEncode cannot produce (unknown sample types).
func writeWire(bw *BlockWriter, wire []byte) {
	if bw.count == 0 {
		bw.firstPos = bw.pos
	}
	bw.raw = binary.BigEndian.AppendUint32(bw.raw, uint32(len(wire)))
	bw.raw = append(bw.raw, wire...)
	bw.count++
	bw.pos++
}

// alternatingCapture writes blocks that alternate between datagrams with
// many flow samples and longer runs of datagrams with at most one flow
// but counter samples or unknown (skipped) samples, so every recycled
// slot is refilled with a different shape. It returns the file (with or
// without its footer) and every datagram's wire bytes in order.
func alternatingCapture(t *testing.T, compress, footer bool) ([]byte, [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	bw, err := NewBlockWriter(&buf, compress)
	if err != nil {
		t.Fatal(err)
	}
	var wires [][]byte
	i := 0
	for block := 0; block < 24; block++ {
		heavy := block%2 == 0
		n := 5
		if !heavy {
			n = 9
		}
		for j := 0; j < n; j, i = j+1, i+1 {
			d := blockTestDatagram(i)
			switch {
			case heavy:
				for k := 1; k < 8; k++ {
					d.Flows = append(d.Flows, blockTestDatagram(i + k).Flows[0])
				}
				d.Counters = nil
			case j%3 == 0:
				d.Flows = nil
				d.Counters = blockTestDatagram(0).Counters
			case j%3 == 1:
				d.Counters = append(blockTestDatagram(0).Counters, blockTestDatagram(13).Counters...)
			default:
				d.Flows, d.Counters = nil, nil
			}
			wire := d.AppendEncode(nil)
			if !heavy && j%3 != 0 {
				// Append one unknown-type sample and bump the count.
				binary.BigEndian.PutUint32(wire[24:], binary.BigEndian.Uint32(wire[24:])+1)
				wire = appendUint32(wire, 999)
				wire = appendUint32(wire, 4)
				wire = appendUint32(wire, uint32(i))
			}
			writeWire(bw, wire)
			wires = append(wires, wire)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if footer {
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), wires
}

// emptyAsNil maps empty sample slices to nil: a recycled slot hands out
// an empty slice where a fresh Decode leaves nil, which is no difference
// to a reader of the datagram.
func emptyAsNil(d Datagram) Datagram {
	if len(d.Flows) == 0 {
		d.Flows = nil
	}
	if len(d.Counters) == 0 {
		d.Counters = nil
	}
	return d
}

// TestBlockReadersReuseSlotsCleanly pins that recycled datagram slots
// carry nothing over: every datagram either reader hands out deep-equals
// a fresh Decode of its wire bytes, although its slot last held a
// datagram of a different shape.
func TestBlockReadersReuseSlotsCleanly(t *testing.T) {
	readers := []struct {
		name string
		open func(data []byte) (datagramReader, error)
	}{
		{"serial", func(data []byte) (datagramReader, error) { return NewBlockReader(bytes.NewReader(data)) }},
		{"parallel-1", func(data []byte) (datagramReader, error) { return NewParallelBlockReader(bytes.NewReader(data), 1) }},
		{"parallel-2", func(data []byte) (datagramReader, error) { return NewParallelBlockReader(bytes.NewReader(data), 2) }},
	}
	for _, compress := range []bool{false, true} {
		for _, footer := range []bool{true, false} {
			data, wires := alternatingCapture(t, compress, footer)
			for _, rd := range readers {
				t.Run(fmt.Sprintf("compress=%v/footer=%v/%s", compress, footer, rd.name), func(t *testing.T) {
					r, err := rd.open(data)
					if err != nil {
						t.Fatal(err)
					}
					if c, ok := r.(io.Closer); ok {
						defer c.Close()
					}
					var got Datagram
					for i, wire := range wires {
						if err := r.Next(&got); err != nil {
							t.Fatalf("datagram %d: %v", i, err)
						}
						var want Datagram
						if err := Decode(wire, &want); err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(emptyAsNil(got), want) {
							t.Fatalf("datagram %d differs from a fresh decode:\ngot  %+v\nwant %+v", i, got, want)
						}
					}
					if err := r.Next(&got); err != io.EOF {
						t.Fatalf("after %d datagrams: %v, want io.EOF", len(wires), err)
					}
				})
			}
		}
	}
}

// TestBlockReadAllocs pins the read side's steady state: once every
// recycled slot has held a datagram of each shape, draining more of
// the capture allocates (almost) nothing per datagram, in either
// reader.
func TestBlockReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const n, warm, batch = 8000, 4000, 1000
	data, _ := writeBlockCapture(t, n, false, 64)
	readers := []struct {
		name string
		open func() (datagramReader, error)
	}{
		{"serial", func() (datagramReader, error) { return NewBlockReader(bytes.NewReader(data)) }},
		{"parallel", func() (datagramReader, error) { return NewParallelBlockReader(bytes.NewReader(data), 1) }},
	}
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			r, err := rd.open()
			if err != nil {
				t.Fatal(err)
			}
			if c, ok := r.(io.Closer); ok {
				defer c.Close()
			}
			var d Datagram
			read := func(k int) {
				for i := 0; i < k; i++ {
					if err := r.Next(&d); err != nil {
						t.Fatal(err)
					}
				}
			}
			read(warm)
			// One warm-up call and one measured call, batch datagrams each.
			allocs := testing.AllocsPerRun(1, func() { read(batch) })
			if per := allocs / batch; per >= 0.1 {
				t.Fatalf("%.3f allocations per datagram in steady state, want < 0.1", per)
			}
		})
	}
}
