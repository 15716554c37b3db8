package stats

import (
	"bytes"
	"errors"
	"math"
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
		if got := d.Prob(c.v); math.Abs(got-c.p) > 1e-12 {
			t.Errorf("Prob(%d) = %g, want %g", c.v, got, c.p)
		}
		if got := d.CDF(c.v); math.Abs(got-c.c) > 1e-12 {
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
	if d.Prob(0) != 0 {
		t.Error("zero degree included in distribution")
	}
	if math.Abs(d.Prob(1)-2.0/3) > 1e-12 || math.Abs(d.Prob(3)-1.0/3) > 1e-12 {
		t.Errorf("degree probs wrong: P(1)=%g P(3)=%g", d.Prob(1), d.Prob(3))
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

func TestDiscreteSerializationRoundTrip(t *testing.T) {
	d, err := FromCounts(map[int64]int64{1: 100, 7: 13, 42: 1, 1000: 886})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDiscrete(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mean() != d.Mean() || got.Min() != d.Min() || got.Max() != d.Max() {
		t.Fatal("summary stats differ")
	}
	for _, v := range d.Support() {
		if got.Prob(v) != d.Prob(v) {
			t.Fatalf("Prob(%d) differs", v)
		}
	}
	// Bit-identical sampling under the same stream.
	r1 := NewRNG(9, 9)
	r2 := NewRNG(9, 9)
	for i := 0; i < 2000; i++ {
		if d.Sample(r1) != got.Sample(r2) {
			t.Fatalf("sampling diverged at draw %d", i)
		}
	}
}

func TestReadDiscreteRejectsGarbage(t *testing.T) {
	if _, err := ReadDiscrete(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Huge claimed count.
	big := []byte{0xff, 0xff, 0xff, 0x7f}
	if _, err := ReadDiscrete(bytes.NewReader(big)); err == nil {
		t.Error("implausible count accepted")
	}
	// Valid structure, corrupted CDF.
	d, _ := FromCounts(map[int64]int64{1: 2, 2: 3})
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	corrupt := append([]byte(nil), b...)
	corrupt[len(corrupt)-20] ^= 0xff // inside cum/pmf floats
	if got, err := ReadDiscrete(bytes.NewReader(corrupt)); err == nil {
		// If it decodes, invariants must still hold (validation may accept
		// some bit flips that keep monotonicity).
		if got.cum[len(got.cum)-1] != 1 {
			t.Error("accepted CDF not reaching 1")
		}
	}
	// Truncations, including a 2^24-value count with nothing behind it.
	for _, cut := range []int{2, 10, len(b) - 4} {
		if _, err := ReadDiscrete(bytes.NewReader(b[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
	torn := append([]byte{0, 0, 0, 1}, b[4:12]...)
	if _, err := ReadDiscrete(bytes.NewReader(torn)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("torn 2^24-value distribution: err = %v, want ErrCorrupt", err)
	}
}
