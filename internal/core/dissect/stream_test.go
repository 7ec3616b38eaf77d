package dissect

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"ixplens/internal/obs"
	"ixplens/internal/packet"
	"ixplens/internal/sflow"
)

func TestClassifyZeroRateAndTruncation(t *testing.T) {
	cls := NewClassifier(fakeMembers{})
	b := packet.NewBuilder(256)
	eth := packet.Ethernet{Src: packet.MAC{2}, Dst: packet.MAC{4}}
	ip := packet.IPv4Header{TTL: 60, Src: packet.MakeIPv4(1, 2, 3, 4), Dst: packet.MakeIPv4(5, 6, 7, 8)}
	fr := b.BuildTCPv4(eth, ip, packet.TCPHeader{SrcPort: 80, DstPort: 5555}, []byte("x"))

	var rec Record
	// SamplingRate 0 means unsampled: the sample stands for exactly its
	// own frame, for every class including undecodable.
	fs := sflow.FlowSample{
		SamplingRate: 0, InputIf: 1001, OutputIf: 1002, HasRaw: true,
		Raw: sflow.RawPacketHeader{Protocol: sflow.HeaderProtoEthernet, FrameLength: 1400, Header: append([]byte(nil), fr...)},
	}
	if got := cls.Classify(&fs, &rec); got != ClassPeeringTCP {
		t.Fatalf("zero-rate class = %v", got)
	}
	if rec.Bytes != 1400 {
		t.Fatalf("zero-rate bytes = %d, want frame length", rec.Bytes)
	}

	// Zero-length header snapshot: undecodable, bytes still accounted.
	fs = sflow.FlowSample{
		SamplingRate: 100, InputIf: 1001, OutputIf: 1002, HasRaw: true,
		Raw: sflow.RawPacketHeader{Protocol: sflow.HeaderProtoEthernet, FrameLength: 900, Header: nil},
	}
	if got := cls.Classify(&fs, &rec); got != ClassUndecodable {
		t.Fatalf("empty-header class = %v", got)
	}
	if rec.Bytes != 900*100 {
		t.Fatalf("empty-header bytes = %d", rec.Bytes)
	}

	// Snapshot ending mid-VLAN tag: the network layer is unreachable, so
	// the frame is undecodable, not non-IPv4.
	vlanStub := append(append([]byte(nil), fr[:12]...), 0x81, 0x00)
	fs = sflow.FlowSample{
		SamplingRate: 100, InputIf: 1001, OutputIf: 1002, HasRaw: true,
		Raw: sflow.RawPacketHeader{Protocol: sflow.HeaderProtoEthernet, FrameLength: 1400, Header: vlanStub},
	}
	if got := cls.Classify(&fs, &rec); got != ClassUndecodable {
		t.Fatalf("mid-VLAN truncation class = %v", got)
	}

	// Snapshot ending mid-IPv4 header: same rule.
	ipStub := append(append([]byte(nil), fr[:12]...), 0x08, 0x00, 0x45, 0x00)
	fs.Raw.Header = ipStub
	if got := cls.Classify(&fs, &rec); got != ClassUndecodable {
		t.Fatalf("mid-IP truncation class = %v", got)
	}
}

// TestSliceSourceMutationSafety replays the anonymizer situation: a
// consumer that rewrites the datagram it was handed — header bytes and
// sample fields alike — must not corrupt what a second pass reads.
func TestSliceSourceMutationSafety(t *testing.T) {
	_, fabric, src, _ := buildWeek(t, 45)
	first, err := serial(src, fabric, nil)
	if err != nil {
		t.Fatal(err)
	}
	src.Reset()

	// Mutating pass: scribble over everything Next hands out.
	var d sflow.Datagram
	for src.Next(&d) == nil {
		for i := range d.Flows {
			for k := range d.Flows[i].Raw.Header {
				d.Flows[i].Raw.Header[k] = 0xAA
			}
			d.Flows[i].InputIf = 0
			d.Flows[i].SamplingRate = 0
		}
		d.Flows = nil
	}
	src.Reset()

	second, err := serial(src, fabric, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("counts diverged after mutating consumer:\nfirst  %+v\nsecond %+v", first, second)
	}
	if second.Undecodable != 0 {
		t.Fatalf("%d undecodable frames after mutation pass", second.Undecodable)
	}
}

// TestStreamProcessorSmallBatches drives partial batches and an empty
// close through the processor.
func TestStreamProcessorSmallBatches(t *testing.T) {
	empty := NewShardedStreamProcessor(context.Background(), fakeMembers{}, 2, nil, nil)
	if counts := empty.Close(); counts.Total != 0 {
		t.Fatalf("empty close counted %d", counts.Total)
	}
	// Close is idempotent.
	if counts := empty.Close(); counts.Total != 0 {
		t.Fatalf("second close counted %d", counts.Total)
	}

	sp := NewShardedStreamProcessor(context.Background(), fakeMembers{}, 2, nil, nil)
	d := sflow.Datagram{Flows: []sflow.FlowSample{{
		SamplingRate: 10, InputIf: 1001, OutputIf: 1002, HasRaw: true,
		Raw: sflow.RawPacketHeader{Protocol: sflow.HeaderProtoEthernet, FrameLength: 100, Header: []byte{1, 2, 3}},
	}}}
	for i := 0; i < 3; i++ {
		if err := sp.Add(&d); err != nil {
			t.Fatal(err)
		}
	}
	counts := sp.Close()
	if counts.Total != 3 || counts.Undecodable != 3 {
		t.Fatalf("counts = %+v", counts)
	}
	if again := sp.Close(); again != counts {
		t.Fatalf("second close changed counts: %+v vs %+v", again, counts)
	}
}

// panickyMembers panics on the Nth lookup, then behaves like
// fakeMembers — the poisoned-datagram scenario. The counter is shared
// by every worker's classifier, so exactly one lookup panics.
type panickyMembers struct {
	n  *atomic.Int64
	at int64
}

func (p panickyMembers) MemberOfPort(port uint32) (int32, bool) {
	if p.n.Add(1) == p.at {
		panic("poisoned datagram")
	}
	return fakeMembers{}.MemberOfPort(port)
}

// peeringDatagram builds a datagram with n decodable peering TCP samples.
func peeringDatagram(t *testing.T, n int) *sflow.Datagram {
	t.Helper()
	b := packet.NewBuilder(256)
	eth := packet.Ethernet{Src: packet.MAC{2}, Dst: packet.MAC{4}}
	ip := packet.IPv4Header{TTL: 60, Src: packet.MakeIPv4(1, 2, 3, 4), Dst: packet.MakeIPv4(5, 6, 7, 8)}
	fr := b.BuildTCPv4(eth, ip, packet.TCPHeader{SrcPort: 80, DstPort: 5555}, []byte("x"))
	d := &sflow.Datagram{}
	for i := 0; i < n; i++ {
		d.Flows = append(d.Flows, sflow.FlowSample{
			SamplingRate: 1000, InputIf: 1001, OutputIf: 1002, HasRaw: true,
			Raw: sflow.RawPacketHeader{Protocol: sflow.HeaderProtoEthernet, FrameLength: uint32(len(fr)), Header: append([]byte(nil), fr...)},
		})
	}
	return d
}

// TestClassifyDatagramQuarantine drives a panic out of the resolver mid
// datagram: the samples processed before the panic stay tallied, the
// rest are quarantined, and nothing is double-counted.
func TestClassifyDatagramQuarantine(t *testing.T) {
	// Each peering sample costs two lookups (input and output port);
	// panicking on lookup 5 poisons the third sample.
	cls := NewClassifier(panickyMembers{n: new(atomic.Int64), at: 5})
	reg := obs.NewRegistry()
	cls.SetMetrics(NewMetrics(reg))
	var counts Counts
	cls.ClassifyDatagram(peeringDatagram(t, 8), &counts, nil)
	if counts.Total != 2 {
		t.Fatalf("tallied %d samples before the panic, want 2", counts.Total)
	}
	if counts.PanicQuarantined != 6 {
		t.Fatalf("quarantined %d samples, want 6", counts.PanicQuarantined)
	}
	if got := reg.Counter("dissect_panic_quarantined_total").Value(); got != 6 {
		t.Fatalf("metric reported %d quarantined, want 6", got)
	}
	// The classifier stays usable afterwards.
	cls2 := NewClassifier(fakeMembers{})
	var counts2 Counts
	cls2.ClassifyDatagram(peeringDatagram(t, 3), &counts2, nil)
	if counts2.Total != 3 || counts2.PanicQuarantined != 0 {
		t.Fatalf("clean pass counts = %+v", counts2)
	}
}

// TestClassifyDatagramObserverPanic panics inside the observer: the
// sample whose callback blew up must be quarantined, not half-tallied.
func TestClassifyDatagramObserverPanic(t *testing.T) {
	cls := NewClassifier(fakeMembers{})
	var counts Counts
	seen := 0
	cls.ClassifyDatagram(peeringDatagram(t, 5), &counts, func(rec *Record) {
		seen++
		if seen == 2 {
			panic("observer bug")
		}
	})
	if counts.Total != 1 {
		t.Fatalf("tallied %d, want 1 (sample 2 panicked mid-callback)", counts.Total)
	}
	if counts.PanicQuarantined != 4 {
		t.Fatalf("quarantined %d, want 4", counts.PanicQuarantined)
	}
}

// TestSerialProcessorRunsOnCaller pins the one-worker processor as the
// serial reference: it starts no goroutine, and Add classifies and
// observes the datagram before returning — as worker 0, in stream
// order — so New, Add and Close leave the goroutine count unchanged.
func TestSerialProcessorRunsOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	var seen []uint64
	sp := NewShardedStreamProcessor(context.Background(), fakeMembers{}, 1,
		func(w int, rec *Record, seq uint64) {
			if w != 0 {
				t.Errorf("serial observer called as worker %d", w)
			}
			seen = append(seen, seq)
		}, nil)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("New started %d goroutines", n-before)
	}
	for i := 0; i < 3; i++ {
		if err := sp.Add(peeringDatagram(t, 4)); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 4*(i+1) {
			t.Fatalf("after Add %d the observer saw %d records, want %d", i+1, len(seen), 4*(i+1))
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("Add started %d goroutines", n-before)
	}
	counts := sp.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines outlive Close", n-before)
	}
	if counts.Total != 12 {
		t.Fatalf("counts = %+v, want 12 samples", counts)
	}
	for i, seq := range seen {
		if seq != uint64(i) {
			t.Fatalf("record %d observed at seq %d: not stream order", i, seq)
		}
	}
}

// TestSerialProcessorQuarantinesPerDatagram poisons one lookup under a
// one-worker processor: exactly the poisoned datagram's remaining
// samples quarantine — the same tallies ClassifyDatagram yields over the
// same datagrams — not the rest of a batch.
func TestSerialProcessorQuarantinesPerDatagram(t *testing.T) {
	ref := NewClassifier(panickyMembers{n: new(atomic.Int64), at: 5})
	var want Counts
	for i := 0; i < 3; i++ {
		ref.ClassifyDatagram(peeringDatagram(t, 8), &want, nil)
	}
	if want.Total != 18 || want.PanicQuarantined != 6 {
		t.Fatalf("reference counts = %+v, want 18 tallied and 6 quarantined", want)
	}

	reg := obs.NewRegistry()
	sp := NewShardedStreamProcessor(context.Background(),
		panickyMembers{n: new(atomic.Int64), at: 5}, 1, nil, NewMetrics(reg))
	for i := 0; i < 3; i++ {
		if err := sp.Add(peeringDatagram(t, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sp.Close(); got != want {
		t.Fatalf("serial processor counts = %+v, want ClassifyDatagram's %+v", got, want)
	}
	if got := reg.Counter("dissect_panic_quarantined_total").Value(); got != 6 {
		t.Fatalf("metric reported %d quarantined, want 6", got)
	}
}

// TestStreamProcessorQuarantine poisons one lookup in a four-worker
// pool: exactly one batch is quarantined, every other sample flows
// through on the other workers, and the split is conserved.
func TestStreamProcessorQuarantine(t *testing.T) {
	sp := NewShardedStreamProcessor(context.Background(),
		panickyMembers{n: new(atomic.Int64), at: 101}, 4, nil, nil)
	const total = 600 // > 2 batches of 256
	for i := 0; i < total/10; i++ {
		if err := sp.Add(peeringDatagram(t, 10)); err != nil {
			t.Fatal(err)
		}
	}
	counts := sp.Close()
	if counts.PanicQuarantined == 0 {
		t.Fatal("no samples quarantined")
	}
	// Batches dispatch at >= defaultBatchSamples, so a batch can
	// overshoot by up to one datagram (10 samples here).
	if counts.PanicQuarantined > defaultBatchSamples+10 {
		t.Fatalf("quarantined %d, more than one batch", counts.PanicQuarantined)
	}
	if counts.Total+counts.PanicQuarantined != total {
		t.Fatalf("conservation broken: %d tallied + %d quarantined != %d",
			counts.Total, counts.PanicQuarantined, total)
	}
}

// TestStreamProcessorObserverPanicQuarantine panics in one worker's
// observer call of a four-worker pool; the remainder of that batch
// quarantines, every other batch still delivers.
func TestStreamProcessorObserverPanicQuarantine(t *testing.T) {
	var seen atomic.Int64
	sp := NewShardedStreamProcessor(context.Background(), fakeMembers{}, 4,
		func(w int, rec *Record, seq uint64) {
			if seen.Add(1) == 10 {
				panic("observer bug")
			}
		}, nil)
	const total = 600
	for i := 0; i < total/10; i++ {
		if err := sp.Add(peeringDatagram(t, 10)); err != nil {
			t.Fatal(err)
		}
	}
	counts := sp.Close()
	if counts.PanicQuarantined == 0 {
		t.Fatal("no samples quarantined")
	}
	if counts.Total+counts.PanicQuarantined != total {
		t.Fatalf("conservation broken: %d + %d != %d", counts.Total, counts.PanicQuarantined, total)
	}
	if counts.Total < total-defaultBatchSamples-10 {
		t.Fatalf("only %d delivered; other batches must survive an observer panic", counts.Total)
	}
}

// TestStreamProcessorCancellation cancels mid-stream: Add starts
// failing with the context error, and Close still drains cleanly and
// counts every sample added before the cancel.
func TestStreamProcessorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sp := NewShardedStreamProcessor(ctx, fakeMembers{}, 4, nil, nil)
	if err := sp.Add(peeringDatagram(t, 10)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := sp.Add(peeringDatagram(t, 10)); err != context.Canceled {
		t.Fatalf("Add after cancel = %v, want context.Canceled", err)
	}
	counts := sp.Close()
	if counts.Total != 10 {
		t.Fatalf("pre-cancel samples lost: counts = %+v", counts)
	}
}

// TestProcessShardedCancelled runs both drain paths against an
// already-cancelled context: each must return the context error without
// consuming the source to EOF.
func TestProcessShardedCancelled(t *testing.T) {
	_, fabric, src, _ := buildWeek(t, 45)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		src.Reset()
		_, err := ProcessSharded(ctx, src, fabric, workers, nil, nil)
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}
