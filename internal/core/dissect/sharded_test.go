package dissect

import (
	"context"
	"sort"
	"sync/atomic"
	"testing"

	"ixplens/internal/obs"
	"ixplens/internal/packet"
)

type seqKey struct {
	seq      uint64
	class    Class
	src, dst packet.IPv4Addr
	bytes    uint64
}

// TestProcessShardedMatchesSequential pins the pool's core contract
// against the serial reference (workers=1): every sample is observed
// exactly once, on exactly one worker, carrying the stream position the
// serial pass saw it at — so re-sorting the shards' observations by seq
// must reproduce the serial record sequence bit for bit. The shared
// metrics bundle must agree with the summed tallies even though every
// worker classifier updated it concurrently.
func TestProcessShardedMatchesSequential(t *testing.T) {
	_, fabric, src, _ := buildWeek(t, 45)

	var serial []seqKey
	seqCounts, err := ProcessSharded(context.Background(), src, fabric, 1,
		func(w int, rec *Record, seq uint64) {
			serial = append(serial, seqKey{seq, rec.Class, rec.SrcIP, rec.DstIP, rec.Bytes})
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	src.Reset()

	const workers = 4
	perWorker := make([][]seqKey, workers)
	reg := obs.NewRegistry()
	shCounts, err := ProcessSharded(context.Background(), src, fabric, workers,
		func(w int, rec *Record, seq uint64) {
			perWorker[w] = append(perWorker[w], seqKey{seq, rec.Class, rec.SrcIP, rec.DstIP, rec.Bytes})
		}, NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if seqCounts != shCounts {
		t.Fatalf("counts diverged:\nseq %+v\nsha %+v", seqCounts, shCounts)
	}
	if got := reg.Counter("dissect_records_total").Value(); got != uint64(shCounts.Total) {
		t.Fatalf("metrics counted %d records, tallies say %d", got, shCounts.Total)
	}
	if got := reg.Counter("dissect_peering_total").Value(); got != uint64(shCounts.Peering()) {
		t.Fatalf("metrics counted %d peering, tallies say %d", got, shCounts.Peering())
	}
	if reg.Counter("dissect_batches_total").Value() == 0 {
		t.Fatal("no batches recorded")
	}

	var merged []seqKey
	for _, obs := range perWorker {
		merged = append(merged, obs...)
	}
	if len(merged) != len(serial) {
		t.Fatalf("observed %d samples, want %d", len(merged), len(serial))
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].seq < merged[j].seq })
	for i := range merged {
		if merged[i] != serial[i] {
			t.Fatalf("sample %d diverged: sharded %+v, serial %+v", i, merged[i], serial[i])
		}
	}
}

// TestProcessShardedSerialFallback: workers <= 1 must still deliver
// stream positions, in order, on worker 0.
func TestProcessShardedSerialFallback(t *testing.T) {
	_, fabric, src, _ := buildWeek(t, 45)
	var next uint64
	_, err := ProcessSharded(context.Background(), src, fabric, 1,
		func(w int, rec *Record, seq uint64) {
			if w != 0 {
				t.Fatalf("worker %d in serial fallback", w)
			}
			if seq != next {
				t.Fatalf("seq %d, want %d", seq, next)
			}
			next++
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next == 0 {
		t.Fatal("no samples observed")
	}
}

// TestShardedQuarantineConservation poisons a resolver lookup: the
// panicking batch quarantines its remaining samples, the rest of the
// stream still flows, and tallied + quarantined adds up.
func TestShardedQuarantineConservation(t *testing.T) {
	sp := NewShardedStreamProcessor(context.Background(),
		panickyMembers{n: new(atomic.Int64), at: 101}, 1, nil, nil)
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
	if counts.PanicQuarantined > defaultBatchSamples+10 {
		t.Fatalf("quarantined %d, more than one batch", counts.PanicQuarantined)
	}
	if counts.Total+counts.PanicQuarantined != total {
		t.Fatalf("conservation broken: %d tallied + %d quarantined != %d",
			counts.Total, counts.PanicQuarantined, total)
	}
}

// TestShardedObserverPanicQuarantine panics inside a shard observer;
// the batch remainder quarantines and later batches still deliver.
func TestShardedObserverPanicQuarantine(t *testing.T) {
	seen := 0
	sp := NewShardedStreamProcessor(context.Background(), fakeMembers{}, 1,
		func(w int, rec *Record, seq uint64) {
			seen++
			if seen == 10 {
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
	if counts.Total < total-defaultBatchSamples {
		t.Fatalf("only %d delivered; later batches must survive an observer panic", counts.Total)
	}
}

// TestShardedCancellation cancels mid-stream: Add reports the context
// error and Close still drains without deadlock.
func TestShardedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sp := NewShardedStreamProcessor(ctx, fakeMembers{}, 2, nil, nil)
	if err := sp.Add(peeringDatagram(t, 10)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := sp.Add(peeringDatagram(t, 10)); err != context.Canceled {
		t.Fatalf("Add after cancel = %v, want context.Canceled", err)
	}
	sp.Close()
}
