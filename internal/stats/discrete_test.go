package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestFromSamplesEmpty(t *testing.T) {
	if _, err := FromSamples(nil); err == nil {
		t.Fatal("FromSamples(nil) succeeded")
	}
}

func TestFromCountsRejectsBadInput(t *testing.T) {
	if _, err := FromCounts(nil); err == nil {
		t.Fatal("FromCounts(nil) succeeded")
	}
	if _, err := FromCounts(map[int64]int64{1: -2}); err == nil {
		t.Fatal("FromCounts accepted negative count")
	}
	if _, err := FromCounts(map[int64]int64{1: 0, 2: 0}); err == nil {
		t.Fatal("FromCounts accepted all-zero counts")
	}
}

func TestDiscreteProbCDF(t *testing.T) {
	d, err := FromCounts(map[int64]int64{1: 1, 2: 2, 4: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    int64
		p, c float64
	}{
		{0, 0, 0},
		{1, 0.25, 0.25},
		{2, 0.5, 0.75},
		{3, 0, 0.75},
		{4, 0.25, 1},
		{5, 0, 1},
	}
	for _, c := range cases {
		if got := prob(d, c.v); math.Abs(got-c.p) > 1e-12 {
			t.Errorf("P[X == %d] = %g, want %g", c.v, got, c.p)
		}
		if got := cdf(d, c.v); math.Abs(got-c.c) > 1e-12 {
			t.Errorf("CDF(%d) = %g, want %g", c.v, got, c.c)
		}
	}
	if d.Min() != 1 || d.Max() != 4 {
		t.Errorf("Min/Max = %d/%d, want 1/4", d.Min(), d.Max())
	}
	if got := d.Mean(); math.Abs(got-2.25) > 1e-12 {
		t.Errorf("Mean = %g, want 2.25", got)
	}
}

func TestDiscreteSampleFrequencies(t *testing.T) {
	d, _ := FromCounts(map[int64]int64{1: 7, 5: 2, 9: 1})
	rng := NewRNG(1, 1)
	const n = 100000
	counts := map[int64]int{}
	for i := 0; i < n; i++ {
		counts[d.Sample(rng)]++
	}
	for v, want := range map[int64]float64{1: 0.7, 5: 0.2, 9: 0.1} {
		got := float64(counts[v]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("empirical P[%d] = %g, want ~%g", v, got, want)
		}
	}
}

func TestDiscreteSingleValue(t *testing.T) {
	d, _ := FromSamples([]int64{42, 42, 42})
	rng := NewRNG(2, 2)
	for i := 0; i < 100; i++ {
		if d.Sample(rng) != 42 {
			t.Fatal("single-value distribution sampled other value")
		}
	}
}

func TestDegreeDistributionSkipsZeros(t *testing.T) {
	d, err := DegreeDistribution([]int64{0, 0, 3, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if prob(d, 0) != 0 {
		t.Error("zero degree included in distribution")
	}
	if math.Abs(prob(d, 1)-2.0/3) > 1e-12 || math.Abs(prob(d, 3)-1.0/3) > 1e-12 {
		t.Errorf("degree probs wrong: P(1)=%g P(3)=%g", prob(d, 1), prob(d, 3))
	}
	if _, err := DegreeDistribution([]int64{0, 0}); err == nil {
		t.Error("all-zero degree vector accepted")
	}
}

func TestNormalize(t *testing.T) {
	out, err := Normalize([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.25) > 1e-12 || math.Abs(out[1]-0.75) > 1e-12 {
		t.Errorf("Normalize = %v", out)
	}
	if _, err := Normalize([]float64{0, 0}); err == nil {
		t.Error("Normalize accepted zero-sum vector")
	}
	if _, err := Normalize([]float64{math.NaN()}); err == nil {
		t.Error("Normalize accepted NaN")
	}
}

// Property: sampled values always come from the support, and the CDF is
// monotone reaching exactly 1.
func TestDiscreteInvariants(t *testing.T) {
	f := func(seed uint64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]int64, len(raw))
		for i, r := range raw {
			samples[i] = int64(r % 100)
		}
		d, err := FromSamples(samples)
		if err != nil {
			return false
		}
		sup := d.Support()
		for i := 1; i < len(sup); i++ {
			if sup[i] <= sup[i-1] {
				return false
			}
		}
		if d.cum[len(d.cum)-1] != 1 {
			return false
		}
		rng := NewRNG(seed, 9)
		inSupport := make(map[int64]bool, len(sup))
		for _, v := range sup {
			inSupport[v] = true
		}
		for i := 0; i < 50; i++ {
			if !inSupport[d.Sample(rng)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// cdf returns P[X <= v].
func cdf(d *Discrete, v int64) float64 {
	i := sort.Search(len(d.values), func(i int) bool { return d.values[i] > v })
	if i == 0 {
		return 0
	}
	return d.cum[i-1]
}

// prob returns P[X == v] of an integer-valued distribution.
func prob(d *Discrete, v int64) float64 { return cdf(d, v) - cdf(d, v-1) }
