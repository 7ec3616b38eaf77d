package dissect

import (
	"context"
	"io"
	"runtime"
	"sync"
	"time"

	"ixplens/internal/sflow"
)

// Streaming dissection. ProcessSharded (or a NewShardedStreamProcessor
// fed through Add) is the one decode→classify→observe driver every
// analysis path uses. With one worker, Add classifies and observes each
// datagram on the caller's goroutine, in stream order — the serial
// reference. With more, a producer (the sFlow collector's emit
// callback, a capture-file reader) pushes datagrams in with Add,
// copying their samples into bounded batches; a pool of workers — each
// owning its own Classifier — classifies AND observes its batches
// inline, handing the observer its worker index and every sample's
// global stream position. There is no ordered merge: observers keep
// per-worker state and merge it deterministically afterwards (the
// analysis registry's shards do), so aggregates are identical to the
// serial reference while memory stays O(batch) instead of O(week).
//
// Two robustness properties ride on top:
//
//   - Cancellation: the processor carries a context. Add fails fast once
//     the context is cancelled — including while blocked waiting for a
//     free batch — so a producer unwinds within one batch instead of
//     deadlocking against a pipeline that stopped consuming.
//   - Panic isolation: a panic inside classification (a poisoned
//     datagram hitting a buggy resolver) or inside the observer
//     quarantines the rest of the affected datagram (one worker) or
//     batch (a pool) — its samples are counted in
//     Counts.PanicQuarantined and reported via metrics — instead of
//     crashing the whole run.

const (
	// defaultBatchSamples is how many flow samples ride in one work unit.
	defaultBatchSamples = 256
	// batchesPerWorker sizes the recycling pool; together with the batch
	// size it bounds the processor's peak memory.
	batchesPerWorker = 2
)

// streamBatch is one unit of work: a contiguous run of flow samples,
// with their header bytes copied into a batch-owned arena.
type streamBatch struct {
	flows []sflow.FlowSample
	arena []byte
	start time.Time // dispatch time, set only when metrics are on
	// seqBase is the global stream index of the batch's first sample:
	// assigned at dispatch, so seqBase + i is the position a sequential
	// pass would have seen sample i at.
	seqBase uint64
}

func (b *streamBatch) reset() {
	b.flows = b.flows[:0]
	b.arena = b.arena[:0]
}

// StreamProcessor classifies a datagram stream with bounded memory.
// Add may be used directly as an ixp.Collector sink. Workers invoke the
// observer inline with their worker index and the sample's global
// stream position, and tally into their own counts slot; Close flushes
// the final partial batch, waits for all in-flight work and returns the
// summed cascade tallies.
type StreamProcessor struct {
	ctx          context.Context
	batchSamples int
	m            *Metrics

	shardFn      ShardObserver
	workerCounts []Counts
	sampleSeq    uint64

	jobs chan *streamBatch // to the classifier workers
	free chan *streamBatch // recycled batches, bounds memory

	cur    *streamBatch
	closed bool

	// serial is the one-worker classifier: Add classifies through it on
	// the caller's goroutine, observing via serialFn. Nil for a pool.
	serial   *Classifier
	serialFn func(*Record)

	counts   Counts
	workerWG sync.WaitGroup
}

// ShardObserver is the per-worker observer of the streaming driver.
// worker identifies the calling goroutine (0 <= worker < workers,
// stable for the processor's lifetime), seq is the record's global
// stream position. Calls for the same worker are sequential; calls for
// different workers are concurrent — the observer must keep per-worker
// state (e.g. one webserver.Identifier shard per worker) and merge
// after Close. The record is only valid for the duration of the call.
type ShardObserver func(worker int, rec *Record, seq uint64)

// NewShardedStreamProcessor builds the driver for workers classifiers
// against the given member resolver (workers below 1 is treated as 1).
// One worker starts no goroutine: Add classifies and observes each
// datagram on the caller's goroutine, as worker 0 with stream-order
// positions. More start a pool in which each worker classifies AND
// observes its batches inline through obs, passing its worker index and
// the sample's global stream position, so observation runs on all
// workers concurrently — the observer must shard its state by worker
// index (see ShardObserver). obs may be nil to only tally the cascade;
// m may be nil to run uninstrumented. ctx may be nil (treated as
// context.Background()); once it is cancelled, Add returns the context
// error — in-flight batches still drain through Close. A panic in
// classification or the observer quarantines the datagram's (one
// worker) or batch's (a pool) remaining samples into
// Counts.PanicQuarantined and the stream keeps flowing.
func NewShardedStreamProcessor(ctx context.Context, members MemberResolver, workers int, obs ShardObserver, m *Metrics) *StreamProcessor {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	p := &StreamProcessor{
		ctx:          ctx,
		shardFn:      obs,
		workerCounts: make([]Counts, workers),
		batchSamples: defaultBatchSamples,
		m:            m,
	}
	if workers == 1 {
		p.serial = NewClassifier(members)
		p.serial.SetMetrics(m)
		p.serialFn = func(rec *Record) {
			if p.shardFn != nil {
				p.shardFn(0, rec, p.sampleSeq)
			}
			p.sampleSeq++
		}
		return p
	}
	pool := workers*batchesPerWorker + 2
	p.jobs = make(chan *streamBatch, pool)
	p.free = make(chan *streamBatch, pool)
	for i := 0; i < pool; i++ {
		p.free <- &streamBatch{}
	}
	for i := 0; i < workers; i++ {
		p.workerWG.Add(1)
		go p.shardWorker(i, members)
	}
	return p
}

func (p *StreamProcessor) shardWorker(idx int, members MemberResolver) {
	defer p.workerWG.Done()
	cls := NewClassifier(members)
	cls.SetMetrics(p.m)
	var rec Record
	for b := range p.jobs {
		p.shardBatch(idx, cls, b, &rec)
		if p.m != nil {
			p.m.BatchNanos.ObserveSince(b.start)
			p.m.QueueDepth.Set(int64(len(p.jobs)))
		}
		b.reset()
		p.free <- b
	}
}

// shardBatch classifies and observes one batch on worker idx. A panic —
// in the classifier or the observer — quarantines the current sample
// and the batch's remainder, like ClassifyDatagram does per datagram.
func (p *StreamProcessor) shardBatch(idx int, cls *Classifier, b *streamBatch, rec *Record) {
	counts := &p.workerCounts[idx]
	i := 0
	defer func() {
		if r := recover(); r != nil {
			n := len(b.flows) - i
			counts.PanicQuarantined += n
			if p.m != nil {
				p.m.PanicQuarantined.Add(uint64(n))
			}
		}
	}()
	for ; i < len(b.flows); i++ {
		cls.Classify(&b.flows[i], rec)
		if p.shardFn != nil {
			p.shardFn(idx, rec, b.seqBase+uint64(i))
		}
		counts.Tally(rec)
	}
}

// Add feeds one datagram to the driver. With one worker it classifies
// and observes the datagram before returning; with a pool it copies the
// flow samples (header bytes included) into the current batch and
// dispatches full batches to the workers. Either way the datagram only
// needs to stay valid for the duration of the call, so Add composes
// with buffer-reusing producers. A pool's Add blocks when all batches
// are in flight — that is the backpressure bounding memory — but never
// past cancellation of the processor's context, which it reports as
// the context's error.
func (p *StreamProcessor) Add(d *sflow.Datagram) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	if p.serial != nil {
		p.serial.ClassifyDatagram(d, &p.workerCounts[0], p.serialFn)
		return nil
	}
	b := p.cur
	if b == nil {
		select {
		case b = <-p.free:
		case <-p.ctx.Done():
			return p.ctx.Err()
		}
		p.cur = b
	}
	for i := range d.Flows {
		fs := d.Flows[i]
		h := fs.Raw.Header
		off := len(b.arena)
		b.arena = append(b.arena, h...)
		fs.Raw.Header = b.arena[off:len(b.arena):len(b.arena)]
		b.flows = append(b.flows, fs)
	}
	if len(b.flows) >= p.batchSamples {
		p.dispatch()
	}
	return nil
}

// dispatch stamps the current batch's global stream position and hands
// it to the workers. Batches are dispatched by the single producer in
// fill order, so seqBase is monotone in stream order even though batches
// complete out of order on the workers.
func (p *StreamProcessor) dispatch() {
	b := p.cur
	p.cur = nil
	if b == nil {
		return
	}
	if len(b.flows) == 0 {
		p.free <- b
		return
	}
	if p.m != nil {
		p.m.Batches.Inc()
		b.start = time.Now()
		p.m.QueueDepth.Set(int64(len(p.jobs) + 1))
	}
	b.seqBase = p.sampleSeq
	p.sampleSeq += uint64(len(b.flows))
	p.jobs <- b
}

// Close flushes the final batch, drains all in-flight work and returns
// the summed counts. The observer will not be called again after Close
// returns. Close is idempotent, and safe to call after cancellation —
// whatever was dispatched before the cancel is still counted.
func (p *StreamProcessor) Close() Counts {
	if !p.closed {
		p.closed = true
		if p.serial == nil {
			p.dispatch()
			close(p.jobs)
			p.workerWG.Wait()
		}
		// Fold the per-worker tallies. Counts fields are additive, so the
		// sum is independent of shard assignment.
		for i := range p.workerCounts {
			p.counts.add(&p.workerCounts[i])
		}
	}
	return p.counts
}

// add folds another tally into c field by field.
func (c *Counts) add(o *Counts) {
	c.Total += o.Total
	c.Undecodable += o.Undecodable
	c.NonIPv4 += o.NonIPv4
	c.Local += o.Local
	c.NonTCPUDP += o.NonTCPUDP
	c.PeeringTCP += o.PeeringTCP
	c.PeeringUDP += o.PeeringUDP
	c.PanicQuarantined += o.PanicQuarantined
	c.TotalBytes += o.TotalBytes
	c.PeeringTCPBytes += o.PeeringTCPBytes
	c.PeeringUDPBytes += o.PeeringUDPBytes
}

// ProcessSharded drains a datagram source through a
// NewShardedStreamProcessor of the given worker count, invoking obs
// (which may be nil) for every sample of every class — obs filters on
// rec.Class — and returns the cascade tallies. With workers <= 1 it
// observes on the caller's goroutine in stream order, on worker 0: the
// serial reference. With more, obs receives each worker's index and
// every sample's global stream position; aggregates built from the
// calls are deterministic as long as the observer's per-IP state merges
// order-independently (the analysis registry's shards do). Either way
// the drain honours ctx (nil means Background): cancellation stops
// consuming the source within one datagram and returns the tallies
// accumulated so far alongside the context error. m may be nil to run
// uninstrumented.
func ProcessSharded(ctx context.Context, src DatagramSource, members MemberResolver, workers int, obs ShardObserver, m *Metrics) (Counts, error) {
	return drainInto(NewShardedStreamProcessor(ctx, members, workers, obs, m), src)
}

// DefaultWorkers is the driver's pool size for a week: one core is left
// to the producer — the traffic generator, or the block reader's
// read-and-hash goroutine — capped where sharding stops paying off. On
// a 2-core host it is one worker, the serial path.
func DefaultWorkers() int {
	return min(max(runtime.GOMAXPROCS(0)-1, 1), 8)
}

// drainInto feeds every datagram of src into p and closes it, in all
// outcomes returning the merged tallies.
func drainInto(p *StreamProcessor, src DatagramSource) (Counts, error) {
	var d sflow.Datagram
	for {
		err := src.Next(&d)
		if err == io.EOF {
			return p.Close(), nil
		}
		if err != nil {
			counts := p.Close()
			return counts, err
		}
		if err := p.Add(&d); err != nil {
			counts := p.Close()
			return counts, err
		}
	}
}
