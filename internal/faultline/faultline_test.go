package faultline

import (
	"math"
	"testing"

	"ixplens/internal/sflow"
)

func synthDatagrams(n int) []sflow.Datagram {
	ds := make([]sflow.Datagram, n)
	for i := range ds {
		ds[i] = sflow.Datagram{
			AgentAddr:   [4]byte{10, 0, 0, 1},
			SequenceNum: uint32(i + 1),
			Flows: []sflow.FlowSample{{
				SequenceNum: uint32(i + 1), SamplingRate: 100, HasRaw: true,
				Raw: sflow.RawPacketHeader{
					Protocol: sflow.HeaderProtoEthernet, FrameLength: 600,
					Header: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
				},
			}},
		}
	}
	return ds
}

func runSink(t *testing.T, cfg Config, salt uint64, ds []sflow.Datagram) ([]uint32, *Injector) {
	t.Helper()
	inj := New(cfg, salt)
	var got []uint32
	sink := inj.Sink(func(d *sflow.Datagram) error {
		got = append(got, d.SequenceNum)
		return nil
	})
	for i := range ds {
		if err := sink(&ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := inj.Flush(func(d *sflow.Datagram) error {
		got = append(got, d.SequenceNum)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got, inj
}

var chaosMix = Config{
	Seed: 7, Drop: 0.05, Duplicate: 0.02, Reorder: 0.02, Truncate: 0.01, BitFlip: 0.01,
}

func TestSinkDeterministic(t *testing.T) {
	a, injA := runSink(t, chaosMix, 45, synthDatagrams(2000))
	b, injB := runSink(t, chaosMix, 45, synthDatagrams(2000))
	if len(a) != len(b) {
		t.Fatalf("delivery count diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
	if injA.Stats.String() != injB.Stats.String() {
		t.Fatalf("stats diverged:\n%v\n%v", &injA.Stats, &injB.Stats)
	}
	// A different salt (another week) faults a different set of datagrams.
	c, _ := runSink(t, chaosMix, 46, synthDatagrams(2000))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("salt change did not alter the fault pattern")
	}
}

func TestSinkRatesAndAccounting(t *testing.T) {
	const n = 20000
	got, inj := runSink(t, chaosMix, 45, synthDatagrams(n))
	st := &inj.Stats
	if st.Seen.Load() != n {
		t.Fatalf("seen %d of %d", st.Seen.Load(), n)
	}
	// Conservation: every datagram is delivered exactly once, except
	// drops (zero times) and duplicates (twice).
	want := n - st.Dropped.Load() + st.Duplicated.Load()
	if int64(len(got)) != want {
		t.Fatalf("delivered %d, conservation says %d (%v)", len(got), want, st)
	}
	for _, c := range []struct {
		name string
		got  int64
		rate float64
	}{
		{"drop", st.Dropped.Load(), chaosMix.Drop},
		{"dup", st.Duplicated.Load(), chaosMix.Duplicate},
		{"reorder", st.Reordered.Load(), chaosMix.Reorder},
		{"trunc", st.Truncated.Load(), chaosMix.Truncate},
		{"flip", st.BitFlipped.Load(), chaosMix.BitFlip},
	} {
		frac := float64(c.got) / n
		if math.Abs(frac-c.rate) > c.rate/2 {
			t.Errorf("%s rate = %v, configured %v", c.name, frac, c.rate)
		}
	}
}

// TestFaultsAsSeenBySequenceTracker closes the loop with the loss
// estimator: drops must register as gaps, duplicates as duplicates,
// reorderings as reorderings — and a pure-reorder stream must not be
// booked as loss.
func TestFaultsAsSeenBySequenceTracker(t *testing.T) {
	var tr sflow.SeqTracker
	inj := New(Config{Seed: 7, Drop: 0.05}, 45)
	sink := inj.Sink(func(d *sflow.Datagram) error { tr.Observe(d); return nil })
	ds := synthDatagrams(10000)
	for i := range ds {
		if err := sink(&ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Stats()
	if int64(st.GapDatagrams) != inj.Stats.Dropped.Load() {
		t.Fatalf("tracker saw %d gap datagrams, injector dropped %d", st.GapDatagrams, inj.Stats.Dropped.Load())
	}
	est, injected := tr.EstLoss(), 0.05
	if est < injected/2 || est > injected*2 {
		t.Fatalf("EstLoss = %v for %v injected", est, injected)
	}

	tr = sflow.SeqTracker{}
	inj = New(Config{Seed: 7, Reorder: 0.05}, 45)
	sink = inj.Sink(func(d *sflow.Datagram) error { tr.Observe(d); return nil })
	ds = synthDatagrams(10000)
	for i := range ds {
		if err := sink(&ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	_ = inj.Flush(func(d *sflow.Datagram) error { tr.Observe(d); return nil })
	st = tr.Stats()
	if st.GapDatagrams != 0 {
		t.Fatalf("pure reorder booked as loss: %+v", st)
	}
	if st.Reordered == 0 {
		t.Fatal("tracker saw no reordering")
	}
}

type mapMembers map[uint32]int32

func (m mapMembers) MemberOfPort(p uint32) (int32, bool) {
	v, ok := m[p]
	return v, ok
}

func TestPanickyResolverFiresExactlyOnce(t *testing.T) {
	r := &PanickyResolver{Members: mapMembers{9: 3}, At: 3}
	mustPanic := func(want bool) {
		defer func() {
			if got := recover() != nil; got != want {
				t.Fatalf("panic = %v, want %v", got, want)
			}
		}()
		if v, ok := r.MemberOfPort(9); !ok || v != 3 {
			t.Fatalf("lookup = %d, %v", v, ok)
		}
	}
	if r.Fired() {
		t.Fatal("fired before any lookup")
	}
	mustPanic(false)
	mustPanic(false)
	mustPanic(true)
	if !r.Fired() {
		t.Fatal("not marked fired")
	}
	mustPanic(false) // once only
}

func TestConfigValidate(t *testing.T) {
	if err := (&Config{Drop: 0.6, Duplicate: 0.6}).Validate(); err == nil {
		t.Fatal("rates summing over 1 accepted")
	}
	if err := (&Config{Drop: -0.1}).Validate(); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := chaosMix.Validate(); err != nil {
		t.Fatal(err)
	}
	if (&Config{}).Active() || (*Config)(nil).Active() {
		t.Fatal("inactive config reported active")
	}
	if !(&Config{PanicAtLookup: 1}).Active() {
		t.Fatal("panic-only config reported inactive")
	}
}

func TestHeaderMutators(t *testing.T) {
	hdr := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	tr := TruncateHeader(hdr, 3)
	if len(tr) != 3 || &tr[0] != &hdr[0] {
		t.Fatalf("truncate gave len %d", len(tr))
	}
	if got := TruncateHeader(nil, 5); got != nil {
		t.Fatal("nil header truncation")
	}
	before := append([]byte(nil), hdr...)
	FlipHeaderBit(hdr, 12345)
	diff := 0
	for i := range hdr {
		if hdr[i] != before[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit flip changed %d bytes", diff)
	}
	FlipHeaderBit(nil, 1) // must not panic
}
