// Package faultline injects deterministic faults into the sFlow capture
// path, modelling everything the paper's measurement infrastructure has
// to survive in production: datagrams lost on the wire or in socket
// buffers, duplicated or reordered by the network, truncated or
// bit-flipped by broken exporters, collectors stalling under load, and
// poisoned input panicking a worker. Every decision is a pure function
// of (seed, salt, datagram index), so a chaos run is exactly
// reproducible: rerunning with the same configuration faults the same
// datagrams in the same way.
//
// The package sits between a datagram producer and its consumer:
// Injector.Sink wraps a push-style collector sink, which is how the
// pipeline's one generation sink applies the fault model to every
// capture, stream and export. PanickyResolver poisons member-port
// lookups to exercise the dissection layer's panic quarantine.
package faultline

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"ixplens/internal/core/dissect"
	"ixplens/internal/randutil"
	"ixplens/internal/sflow"
	"ixplens/internal/vfs"
)

// Config describes the fault mix. The four rate fields are per-datagram
// probabilities; they must each lie in [0, 1] and sum to at most 1,
// because each datagram suffers at most one fault (drawn from a single
// uniform variate, which is what makes runs reproducible).
type Config struct {
	// Seed fixes the fault pattern; combined with a per-stream salt
	// (pipeline runs use the ISO week) and the datagram index.
	Seed uint64

	// Drop is the fraction of datagrams silently discarded — the loss
	// the sequence tracker should later estimate.
	Drop float64
	// Duplicate is the fraction of datagrams delivered twice.
	Duplicate float64
	// Reorder is the fraction of datagrams delayed by one position
	// (delivered after their successor).
	Reorder float64
	// Truncate is the fraction of datagrams that get one sampled
	// header snapped to a shorter prefix.
	Truncate float64
	// BitFlip is the fraction of datagrams that get a single bit of one
	// sampled header inverted.
	BitFlip float64

	// Stall pauses delivery for the given duration on every StallEvery-th
	// datagram (0 disables), modelling a collector briefly wedged on I/O.
	Stall      time.Duration
	StallEvery int

	// PanicAtLookup poisons the PanicAtLookup-th member-port lookup made
	// through a PanickyResolver built from this config (0 disables). The
	// panic fires exactly once per resolver.
	PanicAtLookup int64
}

// Validate rejects impossible fault mixes.
func (c *Config) Validate() error {
	sum := 0.0
	for _, r := range []float64{c.Drop, c.Duplicate, c.Reorder, c.Truncate, c.BitFlip} {
		if r < 0 || r > 1 {
			return fmt.Errorf("faultline: fault rate %v outside [0,1]", r)
		}
		sum += r
	}
	if sum > 1 {
		return fmt.Errorf("faultline: fault rates sum to %v > 1", sum)
	}
	if c.StallEvery < 0 {
		return fmt.Errorf("faultline: negative StallEvery")
	}
	return nil
}

// Active reports whether the config injects any fault at all.
func (c *Config) Active() bool {
	if c == nil {
		return false
	}
	return c.Drop > 0 || c.Duplicate > 0 || c.Reorder > 0 || c.Truncate > 0 ||
		c.BitFlip > 0 || (c.Stall > 0 && c.StallEvery > 0) || c.PanicAtLookup > 0
}

// Stats counts what the injector actually did. All fields are atomics:
// a Sink is driven from one goroutine, but chaos tests read
// the stats while the pipeline is still running.
type Stats struct {
	Seen       atomic.Int64
	Dropped    atomic.Int64
	Duplicated atomic.Int64
	Reordered  atomic.Int64
	Truncated  atomic.Int64
	BitFlipped atomic.Int64
	Stalled    atomic.Int64
}

// String summarizes the fault tally for logs.
func (s *Stats) String() string {
	return fmt.Sprintf("faults{seen=%d drop=%d dup=%d reorder=%d trunc=%d flip=%d stall=%d}",
		s.Seen.Load(), s.Dropped.Load(), s.Duplicated.Load(), s.Reordered.Load(),
		s.Truncated.Load(), s.BitFlipped.Load(), s.Stalled.Load())
}

// Fault kinds, drawn per datagram from one uniform variate.
const (
	faultNone = iota
	faultDrop
	faultDup
	faultReorder
	faultTrunc
	faultFlip
)

// Injector applies a Config to a datagram stream. One injector drives
// one stream (its held-back reorder slot is single-stream state); build
// a fresh one per week.
type Injector struct {
	cfg   Config
	salt  uint64
	n     atomic.Int64
	held  *sflow.Datagram // reorder slot: delivered after its successor
	Stats Stats
}

// New builds an injector for one stream. salt distinguishes streams
// under the same seed — pipeline runs pass the ISO week.
func New(cfg Config, salt uint64) *Injector {
	return &Injector{cfg: cfg, salt: salt}
}

// decide picks this datagram's fault from a single uniform draw, so the
// fault kinds are mutually exclusive and the pattern is a pure function
// of (seed, salt, index).
func (inj *Injector) decide(n uint64) int {
	u := randutil.HashUnit(inj.cfg.Seed, inj.salt, n)
	for _, f := range [...]struct {
		rate float64
		kind int
	}{
		{inj.cfg.Drop, faultDrop},
		{inj.cfg.Duplicate, faultDup},
		{inj.cfg.Reorder, faultReorder},
		{inj.cfg.Truncate, faultTrunc},
		{inj.cfg.BitFlip, faultFlip},
	} {
		if u < f.rate {
			return f.kind
		}
		u -= f.rate
	}
	return faultNone
}

func (inj *Injector) maybeStall(n uint64) {
	if inj.cfg.Stall > 0 && inj.cfg.StallEvery > 0 && n%uint64(inj.cfg.StallEvery) == 0 {
		inj.Stats.Stalled.Add(1)
		time.Sleep(inj.cfg.Stall)
	}
}

// Sink wraps a push-style datagram sink (an ixp.Collector emit callback,
// a StreamProcessor's Add) with fault injection. Call Flush after the
// producer finishes to release a datagram still held back by reordering.
func (inj *Injector) Sink(next func(*sflow.Datagram) error) func(*sflow.Datagram) error {
	return func(d *sflow.Datagram) error {
		n := uint64(inj.n.Add(1))
		inj.Stats.Seen.Add(1)
		inj.maybeStall(n)
		switch inj.decide(n) {
		case faultDrop:
			inj.Stats.Dropped.Add(1)
			return nil
		case faultDup:
			inj.Stats.Duplicated.Add(1)
			// The copy is taken before the first delivery: sinks may
			// rewrite the datagram in place (the anonymizer does), and a
			// duplicate must replay the original bytes, not the rewrite.
			dup := d.Clone()
			if err := inj.deliver(next, d); err != nil {
				return err
			}
			return next(dup)
		case faultReorder:
			if inj.held == nil {
				inj.Stats.Reordered.Add(1)
				inj.held = d.Clone()
				return nil
			}
			// Already holding a datagram back; a second simultaneous
			// reorder degenerates to pass-through.
		case faultTrunc:
			inj.Stats.Truncated.Add(1)
			truncateDatagram(d, randutil.Hash64(inj.cfg.Seed, inj.salt, n, 1))
		case faultFlip:
			inj.Stats.BitFlipped.Add(1)
			flipDatagram(d, randutil.Hash64(inj.cfg.Seed, inj.salt, n, 2))
		}
		return inj.deliver(next, d)
	}
}

// deliver forwards d and, if a reordered datagram is being held back,
// releases it right after — the held datagram ends up exactly one
// position late.
func (inj *Injector) deliver(next func(*sflow.Datagram) error, d *sflow.Datagram) error {
	if err := next(d); err != nil {
		return err
	}
	if h := inj.held; h != nil {
		inj.held = nil
		return next(h)
	}
	return nil
}

// Flush releases a datagram still held back by reordering at the end of
// the stream. Harmless when nothing is held.
func (inj *Injector) Flush(next func(*sflow.Datagram) error) error {
	if h := inj.held; h != nil {
		inj.held = nil
		return next(h)
	}
	return nil
}

// truncateDatagram snaps one sampled header to a shorter (possibly
// empty) prefix — the classifier must classify it as undecodable or by
// whatever layers remain, never crash.
func truncateDatagram(d *sflow.Datagram, h uint64) {
	if len(d.Flows) == 0 {
		return
	}
	raw := &d.Flows[h%uint64(len(d.Flows))].Raw
	raw.Header = TruncateHeader(raw.Header, randutil.SplitMix64(h))
}

// flipDatagram inverts one bit of one sampled header in place.
func flipDatagram(d *sflow.Datagram, h uint64) {
	if len(d.Flows) == 0 {
		return
	}
	raw := &d.Flows[h%uint64(len(d.Flows))].Raw
	FlipHeaderBit(raw.Header, randutil.SplitMix64(h))
}

// TruncateHeader returns hdr cut to a key-derived prefix length (it does
// not modify hdr). Exposed for building fuzz corpora.
func TruncateHeader(hdr []byte, key uint64) []byte {
	if len(hdr) == 0 {
		return hdr
	}
	return hdr[:int(key%uint64(len(hdr)))]
}

// FlipHeaderBit inverts one key-derived bit of hdr in place and returns
// hdr. Exposed for building fuzz corpora.
func FlipHeaderBit(hdr []byte, key uint64) []byte {
	if len(hdr) == 0 {
		return hdr
	}
	i := int(key % uint64(len(hdr)))
	hdr[i] ^= 1 << (randutil.SplitMix64(key) % 8)
	return hdr
}

// PanickyResolver wraps a member resolver and panics exactly once, at
// the configured lookup count — the seam through which faultline reaches
// the classifier workers to exercise their panic quarantine. Safe for
// concurrent use when the wrapped resolver is.
type PanickyResolver struct {
	Members dissect.MemberResolver
	// At is the 1-based lookup index that panics; 0 disables.
	At int64

	n atomic.Int64
}

// MemberOfPort forwards to the wrapped resolver, panicking on call
// number At.
func (r *PanickyResolver) MemberOfPort(port uint32) (int32, bool) {
	if r.At > 0 && r.n.Add(1) == r.At {
		panic(fmt.Sprintf("faultline: injected resolver panic at lookup %d", r.At))
	}
	return r.Members.MemberOfPort(port)
}

// Fired reports whether the injected panic has been triggered.
func (r *PanickyResolver) Fired() bool { return r.At > 0 && r.n.Load() >= r.At }

// FlipFileBitFS inverts one key-derived bit of the file at path in
// place, through fsys, simulating silent disk corruption of a capture
// at rest. The byte offset is key modulo the file size; the bit within
// it is derived from the key. Returns the offset damaged. Going through
// a seam lets the corruption itself compose with an injecting FS. The
// damaged byte is synced to stable storage and close errors are
// surfaced — a corruptor that silently fails to corrupt would make
// chaos tests vacuous.
func FlipFileBitFS(fsys vfs.FS, path string, key uint64) (off int64, err error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if fi.Size() == 0 {
		return 0, fmt.Errorf("faultline: %s is empty, nothing to corrupt", path)
	}
	off = int64(key % uint64(fi.Size()))
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return 0, err
	}
	b[0] ^= 1 << (randutil.SplitMix64(key) % 8)
	if _, err := f.WriteAt(b[:], off); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return off, nil
}

// TruncateFileTailFS cuts the file at path to a key-derived prefix
// length (key modulo the file size) through fsys, simulating a crash
// mid-write. Returns the resulting size.
func TruncateFileTailFS(fsys vfs.FS, path string, key uint64) (int64, error) {
	fi, err := fsys.Stat(path)
	if err != nil {
		return 0, err
	}
	if fi.Size() == 0 {
		return 0, nil
	}
	n := int64(key % uint64(fi.Size()))
	return n, fsys.Truncate(path, n)
}
