package analysis

import (
	"encoding/binary"
	"fmt"

	"ixplens/internal/core/dissect"
	"ixplens/internal/core/visibility"
	"ixplens/internal/entity"
	"ixplens/internal/packet"
)

// Visibility returns the §3 visibility analyzer: per-worker
// visibility.Aggregators sharing the run's entity table, merged by
// dense ID at Finish. The product is the per-IP byte accumulation —
// everything the Table 1–3 and Fig. 2–3 views derive from — encoded as
// an IP-sorted list so the same observations always yield the same
// bytes regardless of worker partitioning.
func Visibility() Analyzer { return visibilityAnalyzer{} }

type visibilityAnalyzer struct{}

func (visibilityAnalyzer) Name() string    { return NameVisibility }
func (visibilityAnalyzer) Version() uint16 { return 1 }

func (visibilityAnalyzer) NewState(actx *Context, workers int) State {
	shards := make([]*visibility.Aggregator, workers)
	for i := range shards {
		// The run resolves every record through this one table, which
		// makes shard-local IDs directly comparable: the ID-level merge
		// relies on it.
		shards[i] = visibility.NewAggregatorWith(actx.Entities)
	}
	return &visibilityState{shards: shards}
}

func (visibilityAnalyzer) Decode(version uint16, payload []byte) (Product, error) {
	return DecodeVisibility(version, payload)
}

type visibilityState struct {
	shards []*visibility.Aggregator
	// ids holds, after Finish, the entity ID of each product IP, in the
	// product's order, so the run reads their attributes by ID.
	ids []entity.ID
}

func (s *visibilityState) Observe(worker int, rec *dissect.Record, src, dst entity.ID, _ uint64) {
	s.shards[worker].ObserveIDs(src, dst, rec.Bytes)
}

func (s *visibilityState) Finish(int) (Product, error) {
	merged := s.shards[0]
	for _, sh := range s.shards[1:] {
		merged.Merge(sh)
	}
	per, ids := merged.PerIPIDs()
	s.ids = ids
	return &VisibilityProduct{PerIP: per}, nil
}

// VisibilityProduct is the persisted per-IP traffic accumulation,
// sorted by IP. Zero-byte entries are kept: an observed IP counts in
// the Table 1 totals even when its sampled frames carried no payload
// bytes.
type VisibilityProduct struct {
	PerIP []visibility.IPTraffic
}

// AppendEncode appends the section payload:
//
//	visibility := nIPs:u32 (ip:u32 bytes:u64)*   — sorted by IP
func (p *VisibilityProduct) AppendEncode(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.PerIP)))
	for i := range p.PerIP {
		e := &p.PerIP[i]
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.IP))
		dst = binary.BigEndian.AppendUint64(dst, e.Bytes)
	}
	return dst, nil
}

// DecodeVisibility parses a visibility section payload.
func DecodeVisibility(version uint16, payload []byte) (*VisibilityProduct, error) {
	if version != 1 {
		return nil, fmt.Errorf("%w: visibility v%d", ErrVersion, version)
	}
	cur := NewCursor(payload)
	n := uint64(cur.U32())
	if cur.Bad() || uint64(cur.Len()) != 12*n {
		// Checked before allocating, so a forged count costs nothing.
		return nil, fmt.Errorf("%w: visibility payload of %d bytes for %d IPs", ErrFormat, len(payload), n)
	}
	out := &VisibilityProduct{PerIP: make([]visibility.IPTraffic, n)}
	for i := range out.PerIP {
		out.PerIP[i].IP = packet.IPv4Addr(cur.U32())
		out.PerIP[i].Bytes = cur.U64()
	}
	return out, nil
}

// Aggregator rebuilds a visibility aggregator from the product, so
// every derived view (Summarize, TopCountries, LocalGlobal, ...) works
// off a reloaded snapshot exactly as off a live pass — those views are
// iteration-order-independent, which the package's equivalence tests
// pin.
func (p *VisibilityProduct) Aggregator(table *entity.Table) *visibility.Aggregator {
	a := visibility.NewAggregatorWith(table)
	for i := range p.PerIP {
		a.Add(p.PerIP[i].IP, p.PerIP[i].Bytes)
	}
	return a
}

// ips lists the product's IPs, ascending.
func (p *VisibilityProduct) ips() []packet.IPv4Addr {
	out := make([]packet.IPv4Addr, len(p.PerIP))
	for i := range p.PerIP {
		out[i] = p.PerIP[i].IP
	}
	return out
}

// ObservedIPs is the number of distinct endpoint IPs in the product.
func (p *VisibilityProduct) ObservedIPs() int { return len(p.PerIP) }

// TotalBytes sums the per-IP accumulation (each record credits both
// endpoints, so this is roughly twice the wire volume).
func (p *VisibilityProduct) TotalBytes() uint64 {
	var sum uint64
	for i := range p.PerIP {
		sum += p.PerIP[i].Bytes
	}
	return sum
}
