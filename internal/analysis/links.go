package analysis

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"ixplens/internal/core/dissect"
	"ixplens/internal/core/hetero"
	"ixplens/internal/entity"
	"ixplens/internal/packet"
)

// Links returns the §5 link-attribution analyzer. It aggregates every
// peering record by its flow identity — (src IP, dst IP, ingress
// member, egress member) — which is exactly the information
// hetero.LinkStats consumes per record: the Fig. 7 attribution for ANY
// organization's server set can be replayed from this one generic
// product, eliminating the bespoke second pass over the capture.
func Links() Analyzer { return linksAnalyzer{} }

type linksAnalyzer struct{}

func (linksAnalyzer) Name() string    { return NameLinks }
func (linksAnalyzer) Version() uint16 { return 1 }

func (linksAnalyzer) NewState(_ *Context, workers int) State {
	return &linksState{shards: make([][][]flowRec, workers)}
}

func (linksAnalyzer) Decode(version uint16, payload []byte) (Product, error) {
	return DecodeLinks(version, payload)
}

// FlowKey identifies one directed peering flow across the fabric.
type FlowKey struct {
	Src, Dst packet.IPv4Addr
	In, Out  int32
}

// Flow is one aggregated peering flow.
type Flow struct {
	FlowKey
	// Bytes is the represented traffic volume (sum of sample bytes).
	Bytes uint64
	// Samples counts the sFlow samples aggregated into this flow.
	Samples uint64
}

// flowRec is one peering sample with its flow key packed into two
// words: hi = Src<<32 | Dst and lo = In'<<32 | Out', where ' flips the
// sign bit. Unsigned (hi, lo) order is then (Src, Dst, In, Out) order
// with the members compared as signed integers.
type flowRec struct {
	hi, lo uint64
	bytes  uint64
}

const signBit = 1 << 31

func (r *flowRec) key() FlowKey {
	return FlowKey{
		Src: packet.IPv4Addr(r.hi >> 32),
		Dst: packet.IPv4Addr(uint32(r.hi)),
		In:  int32(uint32(r.lo>>32) ^ signBit),
		Out: int32(uint32(r.lo) ^ signBit),
	}
}

// flowChunkLen is the number of samples in one buffer chunk (96 KiB).
// A full chunk is never copied while observing.
const flowChunkLen = 1 << 12

// linksState appends every peering sample to its worker's chunked
// buffer and aggregates once, in Finish, by sorting: 24 B per peering
// sample, no per-flow allocation and no map probe on the classifying
// goroutine.
type linksState struct {
	shards [][][]flowRec // worker → chunks of up to flowChunkLen samples
}

func (s *linksState) Observe(worker int, rec *dissect.Record, _, _ entity.ID, _ uint64) {
	chunks := s.shards[worker]
	last := len(chunks) - 1
	if last < 0 || len(chunks[last]) == flowChunkLen {
		chunks = append(chunks, make([]flowRec, 0, flowChunkLen))
		s.shards[worker] = chunks
		last++
	}
	chunks[last] = append(chunks[last], flowRec{
		hi:    uint64(rec.SrcIP)<<32 | uint64(rec.DstIP),
		lo:    uint64(uint32(rec.InMember)^signBit)<<32 | uint64(uint32(rec.OutMember)^signBit),
		bytes: rec.Bytes,
	})
}

// Finish sorts every worker's samples by flow key and sums each run of
// equal keys into one Flow. Sums commute, so the product does not
// depend on how samples landed on workers.
func (s *linksState) Finish(int) (Product, error) {
	var chunks [][]flowRec
	for _, sh := range s.shards {
		chunks = append(chunks, sh...)
	}
	s.shards = nil
	recs := sortChunks(chunks)

	newKey := func(i int) bool {
		return i == 0 || recs[i].hi != recs[i-1].hi || recs[i].lo != recs[i-1].lo
	}
	distinct := 0
	for i := range recs {
		if newKey(i) {
			distinct++
		}
	}
	flows := make([]Flow, 0, distinct)
	for i := range recs {
		if newKey(i) {
			flows = append(flows, Flow{FlowKey: recs[i].key()})
		}
		f := &flows[len(flows)-1]
		f.Bytes += recs[i].bytes
		f.Samples++
	}
	return &LinksProduct{Flows: flows}, nil
}

// sortChunks returns the samples of all chunks in one slice sorted by
// (hi, lo). It is an LSD radix sort over 16-bit digits whose first pass
// scatters straight out of the chunks, so it holds at most two copies
// of the samples at once. A digit that is the same in every key cannot
// reorder anything, so its pass is skipped.
func sortChunks(chunks [][]flowRec) []flowRec {
	n := 0
	andHi, andLo := ^uint64(0), ^uint64(0)
	var orHi, orLo uint64
	for _, c := range chunks {
		n += len(c)
		for i := range c {
			andHi &= c[i].hi
			orHi |= c[i].hi
			andLo &= c[i].lo
			orLo |= c[i].lo
		}
	}
	if n == 0 {
		return nil
	}
	varyHi, varyLo := orHi^andHi, orLo^andLo

	var bufs [2][]flowRec
	var count []int
	src, passes := chunks, 0
	for d := 0; d < 8; d++ {
		useHi, shift := d >= 4, uint(d%4)*16
		vary := varyLo
		if useHi {
			vary = varyHi
		}
		if vary>>shift&0xffff == 0 {
			continue
		}
		digit := func(r *flowRec) int {
			k := r.lo
			if useHi {
				k = r.hi
			}
			return int(k >> shift & 0xffff)
		}
		if count == nil {
			count = make([]int, 1<<16)
		} else {
			clear(count)
		}
		for _, c := range src {
			for i := range c {
				count[digit(&c[i])]++
			}
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		dst := bufs[passes%2]
		if dst == nil {
			dst = make([]flowRec, n)
			bufs[passes%2] = dst
		}
		for _, c := range src {
			for i := range c {
				k := digit(&c[i])
				dst[count[k]] = c[i]
				count[k]++
			}
		}
		src = [][]flowRec{dst}
		passes++
	}
	if passes == 0 {
		return slices.Concat(chunks...)
	}
	return src[0]
}

// LinksProduct is the persisted flow aggregation, sorted by
// (Src, Dst, In, Out).
type LinksProduct struct {
	Flows []Flow
}

// AppendEncode appends the section payload:
//
//	links := nFlows:u32 (src:u32 dst:u32 in:u32 out:u32 bytes:u64 samples:u64)*
func (p *LinksProduct) AppendEncode(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, 4+32*len(p.Flows))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Flows)))
	for i := range p.Flows {
		f := &p.Flows[i]
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Src))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Dst))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.In))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Out))
		dst = binary.BigEndian.AppendUint64(dst, f.Bytes)
		dst = binary.BigEndian.AppendUint64(dst, f.Samples)
	}
	return dst, nil
}

// DecodeLinks parses a links section payload.
func DecodeLinks(version uint16, payload []byte) (*LinksProduct, error) {
	if version != 1 {
		return nil, fmt.Errorf("%w: links v%d", ErrVersion, version)
	}
	cur := NewCursor(payload)
	n := uint64(cur.U32())
	if cur.Bad() || uint64(cur.Len()) != 32*n {
		// Checked before allocating, so a forged count costs nothing.
		return nil, fmt.Errorf("%w: links payload of %d bytes for %d flows", ErrFormat, len(payload), n)
	}
	out := &LinksProduct{Flows: make([]Flow, n)}
	for i := range out.Flows {
		f := &out.Flows[i]
		f.Src = packet.IPv4Addr(cur.U32())
		f.Dst = packet.IPv4Addr(cur.U32())
		f.In = int32(cur.U32())
		f.Out = int32(cur.U32())
		f.Bytes = cur.U64()
		f.Samples = cur.U64()
	}
	return out, nil
}

// LinkStats replays the flows through hetero's per-flow attribution for
// one organization, reproducing a per-record LinkStats.Observe pass over
// the week exactly: every record of one flow key takes the same branch,
// so attributing the pre-summed flow is bit-identical to attributing
// each record.
func (p *LinksProduct) LinkStats(homeMember int32, table *entity.Table, isServer func(packet.IPv4Addr) bool) *hetero.LinkStats {
	ls := hetero.NewLinkStatsWith(homeMember, table)
	for i := range p.Flows {
		f := &p.Flows[i]
		ls.ObserveFlow(f.Src, f.Dst, f.In, f.Out, f.Bytes, isServer)
	}
	return ls
}

// MemberLink is one member-pair aggregate of the fabric's peering
// traffic.
type MemberLink struct {
	In, Out int32
	Bytes   uint64
	Samples uint64
}

// RankedMemberLinks aggregates the flows by (ingress, egress) member
// pair and returns every pair in the product's total order: bytes
// descending, then (In, Out) ascending. Pairs are unique, so the order
// has no ties and any top-k is a prefix of it.
func (p *LinksProduct) RankedMemberLinks() []MemberLink {
	type pair struct{ in, out int32 }
	byPair := make(map[pair]*MemberLink)
	for i := range p.Flows {
		f := &p.Flows[i]
		key := pair{f.In, f.Out}
		ml := byPair[key]
		if ml == nil {
			ml = &MemberLink{In: f.In, Out: f.Out}
			byPair[key] = ml
		}
		ml.Bytes += f.Bytes
		ml.Samples += f.Samples
	}
	out := make([]MemberLink, 0, len(byPair))
	for _, ml := range byPair {
		out = append(out, *ml)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].In != out[j].In {
			return out[i].In < out[j].In
		}
		return out[i].Out < out[j].Out
	})
	return out
}
