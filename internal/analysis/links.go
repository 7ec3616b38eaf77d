package analysis

import (
	"encoding/binary"
	"fmt"
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
	shards := make([]map[FlowKey]*flowAgg, workers)
	for i := range shards {
		shards[i] = make(map[FlowKey]*flowAgg)
	}
	return &linksState{shards: shards}
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

type flowAgg struct {
	bytes   uint64
	samples uint64
}

type linksState struct {
	shards []map[FlowKey]*flowAgg
}

func (s *linksState) Observe(worker int, rec *dissect.Record, _ uint64) {
	if !rec.Class.IsPeering() {
		return
	}
	m := s.shards[worker]
	k := FlowKey{Src: rec.SrcIP, Dst: rec.DstIP, In: rec.InMember, Out: rec.OutMember}
	a := m[k]
	if a == nil {
		a = &flowAgg{}
		m[k] = a
	}
	a.bytes += rec.Bytes
	a.samples++
}

func (s *linksState) Finish(int) (Product, error) {
	merged := s.shards[0]
	for _, sh := range s.shards[1:] {
		for k, a := range sh {
			if m := merged[k]; m != nil {
				m.bytes += a.bytes
				m.samples += a.samples
			} else {
				merged[k] = a
			}
		}
	}
	flows := make([]Flow, 0, len(merged))
	for k, a := range merged {
		flows = append(flows, Flow{FlowKey: k, Bytes: a.bytes, Samples: a.samples})
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].FlowKey.less(&flows[j].FlowKey) })
	return &LinksProduct{Flows: flows}, nil
}

func (k *FlowKey) less(o *FlowKey) bool {
	if k.Src != o.Src {
		return k.Src < o.Src
	}
	if k.Dst != o.Dst {
		return k.Dst < o.Dst
	}
	if k.In != o.In {
		return k.In < o.In
	}
	return k.Out < o.Out
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
	n := int(cur.U32())
	if cur.Bad() || n > cur.Len() {
		return nil, fmt.Errorf("%w: truncated links header", ErrFormat)
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
	if cur.Bad() {
		return nil, fmt.Errorf("%w: truncated links entries", ErrFormat)
	}
	if cur.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, cur.Len())
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

// TopMemberLinks returns the k heaviest member pairs of
// RankedMemberLinks. k <= 0 returns all pairs.
func (p *LinksProduct) TopMemberLinks(k int) []MemberLink {
	out := p.RankedMemberLinks()
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}
