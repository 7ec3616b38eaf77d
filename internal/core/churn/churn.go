// Package churn implements the Section 4 longitudinal analysis: the
// weekly partitions of server IPs into the stable pool (seen in every
// week so far), the recurrent pool (seen before, but not always) and
// fresh arrivals (Fig. 4a), the same partitions by geographic region
// (Fig. 4b) and at AS granularity (Fig. 4c), the traffic carried by each
// pool per region (Fig. 5), and the time series behind the Section 4.2
// event studies (HTTPS adoption, cloud data-center ramps and outages,
// reseller growth).
package churn

import (
	"fmt"

	"ixplens/internal/entity"
	"ixplens/internal/packet"
	"ixplens/internal/routing"
)

// ServerObs is one week's observation of one server IP, annotated with
// the resolution results the pipeline obtained for it.
type ServerObs struct {
	Bytes  uint64
	ASN    uint32
	Prefix routing.Prefix
	Region string
	HTTPS  bool
	// Member is the member AS index whose port carried the server's
	// traffic (-1 unknown).
	Member int32
}

// WeekObservation is the full identified-server view of one week.
type WeekObservation struct {
	Week    int
	Servers map[packet.IPv4Addr]ServerObs
	// EstLoss carries the capture's estimated datagram loss fraction
	// into the longitudinal record, so churn figures derived from a
	// degraded week are marked as such.
	EstLoss float64
	// Gap marks a week with no usable observation (quarantined or
	// otherwise failed). Gap weeks hold a place in the series — the
	// campaign's calendar is unbroken — but contribute nothing to the
	// pools: histories are neither advanced nor penalized, so an IP seen
	// in every *observed* week stays stable across the gap.
	Gap bool
}

// Pool indexes the three churn partitions.
type Pool int

// Pools.
const (
	PoolStable Pool = iota
	PoolRecurrent
	PoolNew
)

// String names the pool.
func (p Pool) String() string {
	switch p {
	case PoolStable:
		return "stable"
	case PoolRecurrent:
		return "recurrent"
	case PoolNew:
		return "new"
	default:
		return fmt.Sprintf("Pool(%d)", int(p))
	}
}

// WeekChurn is the computed churn state of one week.
type WeekChurn struct {
	Week int
	// IPs counts server IPs per pool (Fig. 4a's bar pieces).
	IPs [3]int
	// Bytes is the server traffic carried by each pool.
	Bytes [3]uint64
	// ByRegion carries Fig. 4b / Fig. 5: per region, IPs and bytes per
	// pool.
	ByRegion map[string]*RegionChurn
	// ASes counts the ASes hosting servers per pool (Fig. 4c). An AS is
	// stable when it appeared in every week so far.
	ASes [3]int
	// TotalASes and TotalPrefixes are the week's server-hosting AS and
	// prefix counts (the §4.1 "20K ASes, 75K prefixes" stability).
	TotalASes     int
	TotalPrefixes int
	// UnresolvedIPs counts server IPs whose RIB lookup failed (ASN 0).
	// They participate in IP-level churn but are excluded from the
	// AS-level pools — ASN 0 is a lookup failure, not an AS, and pooling
	// it would fabricate a phantom "stable" AS present every week.
	UnresolvedIPs int
	// HTTPSIPs and HTTPSBytes track HTTPS adoption (§4.2).
	HTTPSIPs   int
	HTTPSBytes uint64
	// TotalBytes is the week's server traffic.
	TotalBytes uint64
	// EstLoss is the source week's estimated datagram loss fraction, a
	// data-quality annotation propagated from the capture layer.
	EstLoss float64
	// Gap marks a placeholder row for a week with no observation: every
	// count above is zero and the pools were not advanced.
	Gap bool
	// ObservedWeeks counts the non-gap weeks up to and including this
	// one — the denominator behind the stable pool ("seen in every
	// observed week").
	ObservedWeeks int
	// Streak counts consecutive observed weeks ending at this one; a gap
	// resets it to zero. This is the series consumers use when a claim
	// depends on uninterrupted coverage (the paper's 17-consecutive-week
	// framing).
	Streak int
}

// RegionChurn is a per-region slice of a week's churn.
type RegionChurn struct {
	IPs   [3]int
	Bytes [3]uint64
}

// Tracker consumes weekly observations in chronological order. Weeks
// are joined by IP address.
type Tracker struct {
	weeks []WeekObservation
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// NewTrackerWith is NewTracker; the table is not read.
func NewTrackerWith(*entity.Table) *Tracker { return NewTracker() }

// Add appends a week. Weeks must be added in increasing order.
func (t *Tracker) Add(obs WeekObservation) error {
	if len(t.weeks) > 0 && obs.Week <= t.weeks[len(t.weeks)-1].Week {
		return fmt.Errorf("churn: week %d added after week %d", obs.Week, t.weeks[len(t.weeks)-1].Week)
	}
	t.weeks = append(t.weeks, obs)
	return nil
}

// AddGap records a week with no usable observation (quarantined,
// analysis failed) as an explicit hole in the series. The same ordering
// rule as Add applies.
func (t *Tracker) AddGap(week int) error {
	return t.Add(WeekObservation{Week: week, Gap: true})
}

// NumWeeks returns the number of weeks added.
func (t *Tracker) NumWeeks() int { return len(t.weeks) }

// Week returns the i-th observation.
func (t *Tracker) Week(i int) *WeekObservation { return &t.weeks[i] }

// poolOf derives the pool of an entity in week index n from its history.
func poolOf(first, seen, n int) Pool {
	switch {
	case first == n:
		return PoolNew
	case seen == n:
		// Seen in every prior week (and, by the caller's construction,
		// in this one).
		return PoolStable
	default:
		return PoolRecurrent
	}
}

// history tracks one entity's appearance record: the week index it was
// first seen and how many weeks it has been seen in.
type history struct {
	first int32
	seen  int32
}

// Compute derives the per-week churn series.
func (t *Tracker) Compute() []WeekChurn {
	ipHist := make(map[packet.IPv4Addr]*history)
	asHist := make(map[uint32]*history)

	out := make([]WeekChurn, 0, len(t.weeks))
	// obsN indexes *observed* (non-gap) weeks: the pool histories advance
	// only when a week contributed data, so "stable" means seen in every
	// observed week — a gap neither breaks an IP's stability nor
	// fabricates a sighting. streak counts consecutive observed weeks and
	// does reset on a gap.
	obsN, streak := 0, 0
	for _, obs := range t.weeks {
		if obs.Gap {
			streak = 0
			out = append(out, WeekChurn{
				Week:          obs.Week,
				EstLoss:       obs.EstLoss,
				ByRegion:      make(map[string]*RegionChurn),
				Gap:           true,
				ObservedWeeks: obsN,
			})
			continue
		}
		n := obsN
		obsN++
		streak++
		wc := WeekChurn{
			Week:          obs.Week,
			EstLoss:       obs.EstLoss,
			ByRegion:      make(map[string]*RegionChurn),
			ObservedWeeks: obsN,
			Streak:        streak,
		}
		asPools := make(map[uint32]Pool)
		prefixes := make(map[routing.Prefix]bool)
		for ip, so := range obs.Servers {
			h := ipHist[ip]
			if h == nil {
				h = &history{first: int32(n)}
				ipHist[ip] = h
			}
			pool := poolOf(int(h.first), int(h.seen), n)
			h.seen++

			wc.IPs[pool]++
			wc.Bytes[pool] += so.Bytes
			wc.TotalBytes += so.Bytes
			if so.HTTPS {
				wc.HTTPSIPs++
				wc.HTTPSBytes += so.Bytes
			}
			region := so.Region
			if region == "" {
				region = "RoW"
			}
			rc := wc.ByRegion[region]
			if rc == nil {
				rc = &RegionChurn{}
				wc.ByRegion[region] = rc
			}
			rc.IPs[pool]++
			rc.Bytes[pool] += so.Bytes

			// AS-level churn: an AS's pool is decided by its own
			// history, tracked once per week below. ASN 0 marks a
			// failed RIB lookup, not an AS — count it separately and
			// keep it (and its zero-value prefix) out of the AS and
			// prefix tallies.
			if so.ASN == 0 {
				wc.UnresolvedIPs++
			} else {
				if _, done := asPools[so.ASN]; !done {
					ah := asHist[so.ASN]
					if ah == nil {
						ah = &history{first: int32(n)}
						asHist[so.ASN] = ah
					}
					asPools[so.ASN] = poolOf(int(ah.first), int(ah.seen), n)
					ah.seen++
				}
				prefixes[so.Prefix] = true
			}
		}
		for _, pool := range asPools {
			wc.ASes[pool]++
		}
		wc.TotalASes = len(asPools)
		wc.TotalPrefixes = len(prefixes)
		out = append(out, wc)
	}
	return out
}

// Total returns the week's total server IP count.
func (wc *WeekChurn) Total() int { return wc.IPs[0] + wc.IPs[1] + wc.IPs[2] }

// Share returns a pool's share of the week's server IPs.
func (wc *WeekChurn) Share(p Pool) float64 {
	tot := wc.Total()
	if tot == 0 {
		return 0
	}
	return float64(wc.IPs[p]) / float64(tot)
}

// ByteShare returns a pool's share of the week's server traffic.
func (wc *WeekChurn) ByteShare(p Pool) float64 {
	if wc.TotalBytes == 0 {
		return 0
	}
	return float64(wc.Bytes[p]) / float64(wc.TotalBytes)
}

// HTTPSShareIPs returns the HTTPS fraction of the week's server IPs.
func (wc *WeekChurn) HTTPSShareIPs() float64 {
	tot := wc.Total()
	if tot == 0 {
		return 0
	}
	return float64(wc.HTTPSIPs) / float64(tot)
}

// HTTPSShareBytes returns the HTTPS fraction of the week's traffic.
func (wc *WeekChurn) HTTPSShareBytes() float64 {
	if wc.TotalBytes == 0 {
		return 0
	}
	return float64(wc.HTTPSBytes) / float64(wc.TotalBytes)
}

// CountInRanges returns, per tracked week, how many observed server IPs
// fall into the given address ranges — the paper's technique for
// watching a cloud platform through its published IP ranges (§4.2).
func (t *Tracker) CountInRanges(ranges []routing.Prefix) []int {
	out := make([]int, len(t.weeks))
	for n := range t.weeks {
		for ip := range t.weeks[n].Servers {
			for _, p := range ranges {
				if p.Contains(ip) {
					out[n]++
					break
				}
			}
		}
	}
	return out
}

// BytesInRanges is CountInRanges for traffic volume.
func (t *Tracker) BytesInRanges(ranges []routing.Prefix) []uint64 {
	out := make([]uint64, len(t.weeks))
	for n := range t.weeks {
		for ip, so := range t.weeks[n].Servers {
			for _, p := range ranges {
				if p.Contains(ip) {
					out[n] += so.Bytes
					break
				}
			}
		}
	}
	return out
}

// CountByMember returns, per week, how many server IPs entered the IXP
// through the given member's port — the reseller-growth series (§4.2).
func (t *Tracker) CountByMember(member int32) []int {
	out := make([]int, len(t.weeks))
	for n := range t.weeks {
		for _, so := range t.weeks[n].Servers {
			if so.Member == member {
				out[n]++
			}
		}
	}
	return out
}
