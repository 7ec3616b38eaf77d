// Package geo provides a range-based IP-to-country database equivalent
// to the GeoLite Country database the paper uses to geo-locate the
// 230M+ IPs it observes (Section 3.1, Section 4.1). Like its real-world
// counterpart the database is a sorted list of address ranges, answers
// lookups by binary search, and may deliberately carry a small error
// rate to model the known unreliability of geolocation databases
// (Poese et al., cited as [49] in the paper).
package geo

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"ixplens/internal/packet"
)

// Range maps a contiguous, inclusive IPv4 address range to a country.
type Range struct {
	First, Last packet.IPv4Addr
	// Country is an ISO-3166-like two-letter code.
	Country string
}

// ErrOverlap is returned by Build when input ranges overlap.
var ErrOverlap = errors.New("geo: overlapping ranges")

// DB is an immutable range database. Safe for concurrent lookups.
type DB struct {
	firsts    []packet.IPv4Addr
	lasts     []packet.IPv4Addr
	countries []string
	// distinct is the sorted set of countries, computed once by Build.
	distinct []string
}

// Build sorts and validates ranges into a DB. Adjacent ranges of the
// same country are merged.
func Build(ranges []Range) (*DB, error) {
	rs := make([]Range, len(ranges))
	copy(rs, ranges)
	sort.Slice(rs, func(i, j int) bool { return rs[i].First < rs[j].First })
	db := &DB{}
	for i, r := range rs {
		if r.Last < r.First {
			return nil, fmt.Errorf("geo: inverted range %v-%v", r.First, r.Last)
		}
		if i > 0 && r.First <= rs[i-1].Last {
			return nil, fmt.Errorf("%w: %v-%v and %v-%v", ErrOverlap,
				rs[i-1].First, rs[i-1].Last, r.First, r.Last)
		}
		n := len(db.firsts)
		if n > 0 && db.countries[n-1] == r.Country && db.lasts[n-1]+1 == r.First {
			db.lasts[n-1] = r.Last // merge adjacent same-country ranges
			continue
		}
		db.firsts = append(db.firsts, r.First)
		db.lasts = append(db.lasts, r.Last)
		db.countries = append(db.countries, r.Country)
	}
	db.distinct = slices.Clone(db.countries)
	slices.Sort(db.distinct)
	db.distinct = slices.Compact(db.distinct)
	return db, nil
}

// Lookup returns the country for ip, or "" when the address is not
// covered by any range.
func (db *DB) Lookup(ip packet.IPv4Addr) string {
	// Find the first range starting after ip, then check its predecessor.
	i := sort.Search(len(db.firsts), func(i int) bool { return db.firsts[i] > ip })
	if i == 0 {
		return ""
	}
	if ip <= db.lasts[i-1] {
		return db.countries[i-1]
	}
	return ""
}

// NumRanges returns the number of (merged) ranges in the database.
func (db *DB) NumRanges() int { return len(db.firsts) }

// Countries returns the distinct countries present in the DB, sorted.
// The slice is the DB's own and must not be modified.
func (db *DB) Countries() []string { return db.distinct }

// Region buckets countries the way Section 4.1 of the paper does for its
// churn figures: DE, US, RU, CN and RoW (rest of world).
func Region(country string) string {
	switch country {
	case "DE", "US", "RU", "CN":
		return country
	default:
		return "RoW"
	}
}

// Regions lists the five churn regions in the paper's display order.
var Regions = []string{"DE", "US", "RU", "CN", "RoW"}
