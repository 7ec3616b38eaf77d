package randutil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	if SplitMix64(42) != SplitMix64(42) {
		t.Fatal("SplitMix64 must be a pure function")
	}
	if SplitMix64(1) == SplitMix64(2) {
		t.Fatal("distinct inputs should virtually never collide")
	}
}

func TestHashUnitRange(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		u := HashUnit(i, i*7)
		if u < 0 || u >= 1 {
			t.Fatalf("HashUnit out of range: %v", u)
		}
	}
}

func TestHashUnitUniformity(t *testing.T) {
	// Chi-square-lite check: bucket 100k hashes into 10 bins.
	var bins [10]int
	const n = 100_000
	for i := 0; i < n; i++ {
		bins[int(HashUnit(uint64(i))*10)]++
	}
	for b, c := range bins {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("bin %d count %d deviates >2%% from uniform", b, c)
		}
	}
}

func TestHash64OrderSensitivity(t *testing.T) {
	if Hash64(1, 2) == Hash64(2, 1) {
		t.Fatal("Hash64 must be order sensitive")
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(weights)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 4)
	const n = 400_000
	for i := 0; i < n; i++ {
		counts[a.Sample(rng)]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(float64(counts[i])-want) > want*0.05 {
			t.Errorf("outcome %d: %d draws, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestAliasSampleHashMatchesWeights(t *testing.T) {
	weights := []float64{5, 1, 1, 1, 2}
	a := NewAlias(weights)
	counts := make([]int, len(weights))
	const n = 500_000
	for i := 0; i < n; i++ {
		counts[a.SampleHash(Hash64(uint64(i)))]++
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		want := w / total * n
		if math.Abs(float64(counts[i])-want) > want*0.05 {
			t.Errorf("outcome %d: %d draws, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestAliasZeroAndNegativeWeights(t *testing.T) {
	a := NewAlias([]float64{0, -3, 1})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10_000; i++ {
		if got := a.Sample(rng); got != 2 {
			t.Fatalf("sampled zero-weight outcome %d", got)
		}
	}
}

func TestAliasPanicsOnBadInput(t *testing.T) {
	for _, weights := range [][]float64{nil, {}, {0, 0}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAlias(%v) should panic", weights)
				}
			}()
			NewAlias(weights)
		}()
	}
}

func TestAliasLen(t *testing.T) {
	if NewAlias([]float64{1, 1, 1}).Len() != 3 {
		t.Fatal("Len wrong")
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(100, 1.0)
	if len(w) != 100 {
		t.Fatalf("len = %d", len(w))
	}
	if w[0] != 1 {
		t.Fatalf("w[0] = %v", w[0])
	}
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Fatal("Zipf weights must strictly decrease")
		}
	}
	if math.Abs(w[9]-0.1) > 1e-12 {
		t.Fatalf("w[9] = %v, want 0.1", w[9])
	}
}

// TestQuickAliasSampleInRange: sampling never escapes the index range
// whatever the (valid) weights.
func TestQuickAliasSampleInRange(t *testing.T) {
	prop := func(seed int64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		weights := make([]float64, len(raw))
		anyPos := false
		for i, r := range raw {
			weights[i] = float64(r)
			if r > 0 {
				anyPos = true
			}
		}
		if !anyPos {
			return true
		}
		a := NewAlias(weights)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			k := a.Sample(rng)
			if k < 0 || k >= len(weights) || weights[k] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAliasSample(b *testing.B) {
	a := NewAlias(ZipfWeights(100_000, 0.9))
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Sample(rng)
	}
}

func BenchmarkHashUnit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		HashUnit(uint64(i), 12345)
	}
}
