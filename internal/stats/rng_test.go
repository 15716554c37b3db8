package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestRNGMatchesRandRand pins RNG to math/rand/v2: the same seeds must give
// the same IntN/Float64/Uint64 sequence as rand.New(rand.NewPCG(a, b)) call
// for call, over bounds that hit the power-of-two mask, the common Lemire
// path and (near math.MaxInt64, where about half of all draws are rejected)
// the rejection loop.
func TestRNGMatchesRandRand(t *testing.T) {
	bounds := []int{1, 2, 3, 5, 7, 10, 1000, 1<<31 - 1, 1 << 31, 1<<31 + 1,
		math.MaxInt64, math.MaxInt64 - 1, 1<<62 + 1, 3 << 61, 1<<63 - 25}
	for k := 1; k < 63; k += 5 {
		bounds = append(bounds, 1<<k-1, 1<<k, 1<<k+1)
	}
	const calls = 300_000
	for _, seed := range [][2]uint64{{0, 0}, {1, 2}, {0xdeadbeef, 0x5109}, {math.MaxUint64, 1 << 63}} {
		want := rand.New(rand.NewPCG(seed[0], seed[1]))
		got := NewRNG(seed[0], seed[1])
		for i := 0; i < calls; i++ {
			switch i % 3 {
			case 0:
				n := bounds[(i/3)%len(bounds)]
				if g, w := got.IntN(n), want.IntN(n); g != w {
					t.Fatalf("seed %v call %d: IntN(%d) = %d, rand.Rand gives %d", seed, i, n, g, w)
				}
			case 1:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %v call %d: Float64 = %v, rand.Rand gives %v", seed, i, g, w)
				}
			default:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %v call %d: Uint64 = %#x, rand.Rand gives %#x", seed, i, g, w)
				}
			}
		}
	}
}

// TestSampleIndexMatchesTwoArrayAlias holds the packed, branch-free draw to
// the two-array alias draw it replaced: the same tables built the same way,
// IntN then Float64 against aliasProb, on a rand.Rand with the same seed.
func TestSampleIndexMatchesTwoArrayAlias(t *testing.T) {
	gen := rand.New(rand.NewPCG(7, 7))
	var pmfs [][]int64
	pmfs = append(pmfs,
		[]int64{1},                      // a single slot, prob == 1
		[]int64{5, 5, 5, 5},             // uniform: every slot prob == 1
		[]int64{1, 1 << 50, 3, 1 << 40}, // tiny masses beside huge ones
	)
	for len(pmfs) < 200 {
		counts := make([]int64, 1+gen.IntN(300))
		for i := range counts {
			switch gen.IntN(4) {
			case 0:
				counts[i] = 1 // a mass near 2^-50 of the total
			case 1:
				counts[i] = 1 << (40 + gen.IntN(10))
			default:
				counts[i] = 1 + gen.Int64N(1000)
			}
		}
		pmfs = append(pmfs, counts)
	}
	for c, counts := range pmfs {
		m := make(map[int64]int64, len(counts))
		var total int64
		for i, n := range counts {
			m[int64(i)] = n
			total += n
		}
		d, err := FromCounts(m)
		if err != nil {
			t.Fatal(err)
		}
		pmf := make([]float64, len(counts))
		for i, n := range counts {
			pmf[i] = float64(n) / float64(total)
		}
		aliasProb, alias := twoArrayAlias(pmf)
		want := rand.New(rand.NewPCG(uint64(c), 11))
		got := NewRNG(uint64(c), 11)
		for j := 0; j < 5000; j++ {
			w := want.IntN(len(aliasProb))
			if want.Float64() >= aliasProb[w] {
				w = int(alias[w])
			}
			if g := d.SampleIndex(got); g != w {
				t.Fatalf("pmf %d draw %d: SampleIndex = %d, two-array draw gives %d", c, j, g, w)
			}
		}
	}
}

// twoArrayAlias is the Vose construction as it stood with parallel
// aliasProb/alias arrays.
func twoArrayAlias(pmf []float64) ([]float64, []int32) {
	n := len(pmf)
	aliasProb, alias := make([]float64, n), make([]int32, n)
	scaled := make([]float64, n)
	var small, large []int32
	for i := range pmf {
		scaled[i] = pmf[i] * float64(n)
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
		aliasProb[s], alias[s] = scaled[s], l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range append(large, small...) {
		aliasProb[i], alias[i] = 1, i
	}
	return aliasProb, alias
}
