// Package randutil provides the deterministic randomness primitives the
// world generator is built on: a fast stateless hash (for reproducible
// per-entity, per-week decisions), Walker's alias method for O(1)
// weighted sampling, and Zipf weight construction for the heavy-tailed
// popularity distributions that dominate Internet traffic.
package randutil

import (
	"math"
	"math/rand"
)

// SplitMix64 is the splitmix64 finalizer: a high-quality stateless
// 64-bit mix. Feeding it a composite key (seed ^ entity ^ week) yields
// stable per-entity randomness that both the traffic generator and the
// ground-truth evaluation can recompute independently.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashUnit maps a composite key to a float64 in [0, 1).
func HashUnit(parts ...uint64) float64 {
	h := uint64(0x7c0ffee123456789)
	for _, p := range parts {
		h = SplitMix64(h ^ p)
	}
	return float64(h>>11) / float64(1<<53)
}

// Hash64 combines parts into a single 64-bit hash.
func Hash64(parts ...uint64) uint64 {
	h := uint64(0xa5a5a5a5deadbeef)
	for _, p := range parts {
		h = SplitMix64(h ^ p)
	}
	return h
}

// Alias is a Walker alias table for O(1) sampling from a fixed discrete
// distribution. Construction is O(n).
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table over weights. Non-positive weights get
// probability zero. NewAlias panics if no weight is positive, since
// sampling would be meaningless.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("randutil: empty weight vector")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("randutil: no positive weight")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1
	}
	return a
}

// Sample draws one index using rng.
func (a *Alias) Sample(rng *rand.Rand) int {
	i := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// SampleHash draws one index from a 64-bit hash value, for stateless
// deterministic sampling.
func (a *Alias) SampleHash(h uint64) int {
	n := uint64(len(a.prob))
	i := int(h % n)
	u := float64(SplitMix64(h)>>11) / float64(1<<53)
	if u < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Len returns the number of outcomes.
func (a *Alias) Len() int { return len(a.prob) }

// ZipfWeights returns n weights following a Zipf law with exponent s:
// weight(rank k) = 1/(k+1)^s. These model the popularity skew of
// organizations, servers and sites.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return w
}
