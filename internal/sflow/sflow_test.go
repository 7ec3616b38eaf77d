package sflow

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleDatagram() *Datagram {
	return &Datagram{
		AgentAddr:   [4]byte{10, 0, 0, 1},
		SubAgentID:  3,
		SequenceNum: 77,
		Uptime:      123456,
		Flows: []FlowSample{
			{
				SequenceNum:   9,
				SourceIDIndex: 42,
				SamplingRate:  16384,
				SamplePool:    9 * 16384,
				InputIf:       42,
				OutputIf:      57,
				HasRaw:        true,
				Raw: RawPacketHeader{
					Protocol:    HeaderProtoEthernet,
					FrameLength: 1514,
					Header:      []byte("0123456789abcdefXYZ"), // odd length: exercises padding
				},
				HasSwitch: true,
				Switch:    ExtendedSwitch{SrcVLAN: 100, DstVLAN: 200},
			},
			{
				SequenceNum:   10,
				SourceIDIndex: 42,
				SamplingRate:  16384,
				HasRaw:        true,
				Raw: RawPacketHeader{
					Protocol:    HeaderProtoEthernet,
					FrameLength: 64,
					Header:      []byte{1, 2, 3, 4},
				},
			},
		},
		Counters: []CounterSample{
			{
				SequenceNum:   5,
				SourceIDIndex: 42,
				HasGeneric:    true,
				Generic: GenericInterfaceCounters{
					IfIndex: 42, IfSpeed: 10_000_000_000,
					InOctets: 1 << 40, OutOctets: 1 << 41,
					InUcastPkts: 12345, OutUcastPkts: 54321,
				},
			},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	d := sampleDatagram()
	wire := d.AppendEncode(nil)

	var got Datagram
	if err := Decode(wire, &got); err != nil {
		t.Fatal(err)
	}
	if got.AgentAddr != d.AgentAddr || got.SubAgentID != 3 || got.SequenceNum != 77 || got.Uptime != 123456 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Flows) != 2 || len(got.Counters) != 1 {
		t.Fatalf("sample counts: %d flows %d counters", len(got.Flows), len(got.Counters))
	}
	f := got.Flows[0]
	if f.SamplingRate != 16384 || f.InputIf != 42 || f.OutputIf != 57 {
		t.Fatalf("flow sample mismatch: %+v", f)
	}
	if !f.HasRaw || f.Raw.FrameLength != 1514 || !bytes.Equal(f.Raw.Header, []byte("0123456789abcdefXYZ")) {
		t.Fatalf("raw record mismatch: %+v", f.Raw)
	}
	if !f.HasSwitch || f.Switch.SrcVLAN != 100 || f.Switch.DstVLAN != 200 {
		t.Fatalf("switch record mismatch: %+v", f.Switch)
	}
	if !reflect.DeepEqual(got.Counters[0].Generic, d.Counters[0].Generic) {
		t.Fatalf("counters mismatch:\n got %+v\nwant %+v", got.Counters[0].Generic, d.Counters[0].Generic)
	}
}

func TestEncodeIsPadded(t *testing.T) {
	d := sampleDatagram()
	wire := d.AppendEncode(nil)
	if len(wire)%4 != 0 {
		t.Fatalf("encoded length %d is not 4-byte aligned", len(wire))
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	d := sampleDatagram()
	wire := d.AppendEncode(nil)
	binary.BigEndian.PutUint32(wire, 4)
	var got Datagram
	if err := Decode(wire, &got); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

func TestDecodeRejectsBadAddressType(t *testing.T) {
	d := sampleDatagram()
	wire := d.AppendEncode(nil)
	binary.BigEndian.PutUint32(wire[4:], 2) // IPv6 agent address: unsupported
	var got Datagram
	if err := Decode(wire, &got); err == nil {
		t.Fatal("want address type error")
	}
}

func TestDecodeSkipsUnknownSampleType(t *testing.T) {
	d := &Datagram{AgentAddr: [4]byte{1, 2, 3, 4}}
	wire := d.AppendEncode(nil)
	// Patch sample count to 1 and append an unknown (type 999) sample.
	binary.BigEndian.PutUint32(wire[24:], 1)
	wire = appendUint32(wire, 999)
	wire = appendUint32(wire, 8)
	wire = appendUint32(wire, 0xdead)
	wire = appendUint32(wire, 0xbeef)

	var got Datagram
	if err := Decode(wire, &got); err != nil {
		t.Fatal(err)
	}
	if got.SkippedSamples != 1 {
		t.Fatalf("SkippedSamples = %d, want 1", got.SkippedSamples)
	}
}

func TestDecodeSkipsUnknownFlowRecord(t *testing.T) {
	// Hand-encode a flow sample with one unknown record type.
	var body []byte
	body = appendUint32(body, 1)     // seq
	body = appendUint32(body, 7)     // source id
	body = appendUint32(body, 16384) // rate
	body = appendUint32(body, 0)     // pool
	body = appendUint32(body, 0)     // drops
	body = appendUint32(body, 7)     // in if
	body = appendUint32(body, 9)     // out if
	body = appendUint32(body, 1)     // record count
	body = appendUint32(body, 4242)  // unknown record type
	body = appendUint32(body, 4)
	body = appendUint32(body, 0xffffffff)

	var wire []byte
	wire = appendUint32(wire, Version)
	wire = appendUint32(wire, 1)
	wire = append(wire, 10, 0, 0, 9)
	wire = appendUint32(wire, 0) // sub agent
	wire = appendUint32(wire, 0) // seq
	wire = appendUint32(wire, 0) // uptime
	wire = appendUint32(wire, 1) // one sample
	wire = appendUint32(wire, sampleTypeFlow)
	wire = appendUint32(wire, uint32(len(body)))
	wire = append(wire, body...)

	var got Datagram
	if err := Decode(wire, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Flows) != 1 || got.Flows[0].SkippedRecords != 1 || got.Flows[0].HasRaw {
		t.Fatalf("unexpected decode: %+v", got.Flows)
	}
}

// TestDecodeTruncationNeverPanics truncates a valid datagram at every
// byte offset; Decode must fail cleanly or succeed, never panic.
func TestDecodeTruncationNeverPanics(t *testing.T) {
	wire := sampleDatagram().AppendEncode(nil)
	var got Datagram
	for n := 0; n < len(wire); n++ {
		if err := Decode(wire[:n], &got); err == nil {
			t.Fatalf("truncated datagram of %d bytes decoded successfully", n)
		}
	}
}

// TestDecodeRandomBytesNeverPanics throws fuzz-like garbage at Decode.
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var got Datagram
	for i := 0; i < 3000; i++ {
		buf := make([]byte, rng.Intn(400))
		rng.Read(buf)
		_ = Decode(buf, &got)
	}
	// Also corrupt valid datagrams in-place.
	base := sampleDatagram().AppendEncode(nil)
	for i := 0; i < 3000; i++ {
		buf := append([]byte(nil), base...)
		buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
		_ = Decode(buf, &got)
	}
}

// TestQuickFlowSampleRoundTrip checks that arbitrary flow sample fields
// survive the round trip.
func TestQuickFlowSampleRoundTrip(t *testing.T) {
	prop := func(seq, pool, drops, inIf, outIf uint32, rate uint32, hdr []byte) bool {
		if len(hdr) > 128 {
			hdr = hdr[:128]
		}
		d := &Datagram{
			AgentAddr: [4]byte{192, 0, 2, 1},
			Flows: []FlowSample{{
				SequenceNum: seq, SamplingRate: rate, SamplePool: pool,
				Drops: drops, InputIf: inIf, OutputIf: outIf,
				SourceIDIndex: inIf & 0xffffff,
				HasRaw:        true,
				Raw:           RawPacketHeader{Protocol: HeaderProtoEthernet, FrameLength: 1000, Header: hdr},
			}},
		}
		wire := d.AppendEncode(nil)
		var got Datagram
		if err := Decode(wire, &got); err != nil || len(got.Flows) != 1 {
			return false
		}
		f := got.Flows[0]
		return f.SequenceNum == seq && f.SamplingRate == rate && f.SamplePool == pool &&
			f.Drops == drops && f.InputIf == inIf && f.OutputIf == outIf &&
			f.SourceIDIndex == inIf&0xffffff && bytes.Equal(f.Raw.Header, hdr)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// v1Capture renders datagrams into the retired v1 stream container —
// the magic, then each datagram's encoding behind its big-endian length
// — which no reader of this package accepts.
func v1Capture(ds ...*Datagram) []byte {
	buf := []byte("IXPSFLW1")
	for _, d := range ds {
		off := len(buf)
		buf = d.AppendEncode(append(buf, 0, 0, 0, 0))
		binary.BigEndian.PutUint32(buf[off:], uint32(len(buf)-off-4))
	}
	return buf
}

func TestDatagramString(t *testing.T) {
	s := sampleDatagram().String()
	if !strings.Contains(s, "agent=10.0.0.1") || !strings.Contains(s, "flows=2") {
		t.Fatalf("String() = %q", s)
	}
}

func TestDecodeReusesSlices(t *testing.T) {
	wire := sampleDatagram().AppendEncode(nil)
	var d Datagram
	if err := Decode(wire, &d); err != nil {
		t.Fatal(err)
	}
	first := &d.Flows[0]
	_ = first
	// Decoding again into the same value must not grow unboundedly.
	for i := 0; i < 100; i++ {
		if err := Decode(wire, &d); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.Flows) != 2 || len(d.Counters) != 1 {
		t.Fatalf("reuse broke decode: %d flows %d counters", len(d.Flows), len(d.Counters))
	}
}

func BenchmarkEncodeDatagram(b *testing.B) {
	d := sampleDatagram()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = d.AppendEncode(buf[:0])
	}
}

func BenchmarkDecodeDatagram(b *testing.B) {
	wire := sampleDatagram().AppendEncode(nil)
	var d Datagram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Decode(wire, &d); err != nil {
			b.Fatal(err)
		}
	}
}
