package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestVeracityIdenticalIsZero(t *testing.T) {
	v := []float64{5, 3, 2, 1, 1}
	score, err := VeracityScore(v, v)
	if err != nil {
		t.Fatal(err)
	}
	if score != 0 {
		t.Fatalf("identical vectors score = %g, want 0", score)
	}
}

func TestVeracityScaleInvariant(t *testing.T) {
	a := []float64{5, 3, 2}
	b := []float64{50, 30, 20} // same shape, 10x scale
	score, err := VeracityScore(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if score > 1e-15 {
		t.Fatalf("scaled copy score = %g, want ~0 (normalization)", score)
	}
}

func TestVeracityOrderInvariant(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{4, 3, 2, 1}
	score, err := VeracityScore(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if score > 1e-15 {
		t.Fatalf("permuted copy score = %g, want ~0 (rank alignment)", score)
	}
}

func TestVeracityDecreasesWithSyntheticSize(t *testing.T) {
	// The paper's key observation (Figs 6-7): as the synthetic graph grows,
	// the veracity score decreases. Model seed and synthetic as power-lawish
	// degree vectors of increasing length.
	seed := make([]float64, 100)
	for i := range seed {
		seed[i] = 1 / float64(i+1)
	}
	prev := math.Inf(1)
	for _, n := range []int{500, 5000, 50000} {
		syn := make([]float64, n)
		for i := range syn {
			syn[i] = 1 / float64(i+1)
		}
		score, err := VeracityScore(seed, syn)
		if err != nil {
			t.Fatal(err)
		}
		if score >= prev {
			t.Fatalf("score did not decrease with size: n=%d score=%g prev=%g", n, score, prev)
		}
		prev = score
	}
}

func TestVeracityErrorOnZeroSum(t *testing.T) {
	if _, err := VeracityScore([]float64{0, 0}, []float64{1}); err == nil {
		t.Fatal("accepted zero-sum seed")
	}
	if _, err := VeracityScore([]float64{1}, []float64{0}); err == nil {
		t.Fatal("accepted zero-sum synthetic")
	}
}

func TestVeracityScoreInt(t *testing.T) {
	s, err := VeracityScoreInt([]int64{2, 1}, []int64{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s > 1e-15 {
		t.Fatalf("int veracity of scaled copy = %g, want ~0", s)
	}
}

func TestNormalizeTypedErrors(t *testing.T) {
	if _, err := Normalize(nil); !errors.Is(err, ErrEmptyVector) {
		t.Fatalf("Normalize(nil) error = %v, want ErrEmptyVector", err)
	}
	if _, err := Normalize([]float64{0, 0, 0}); !errors.Is(err, ErrZeroVector) {
		t.Fatalf("Normalize(zeros) error = %v, want ErrZeroVector", err)
	}
	if _, err := VeracityScore(nil, []float64{1}); !errors.Is(err, ErrEmptyVector) {
		t.Fatalf("VeracityScore(empty seed) error = %v, want ErrEmptyVector", err)
	}
	if _, err := VeracityScore([]float64{1}, []float64{0}); !errors.Is(err, ErrZeroVector) {
		t.Fatalf("VeracityScore(zero synthetic) error = %v, want ErrZeroVector", err)
	}
}

func TestKSDistance(t *testing.T) {
	same := []int64{1, 2, 3, 4, 5}
	if d := KSDistance(same, same); d != 0 {
		t.Fatalf("KS of identical samples = %g, want 0", d)
	}
	disjoint := KSDistance([]int64{1, 1, 1}, []int64{10, 10, 10})
	if math.Abs(disjoint-1) > 1e-12 {
		t.Fatalf("KS of disjoint samples = %g, want 1", disjoint)
	}
	// Same distribution sampled twice should have small KS.
	rng := rand.New(rand.NewPCG(3, 3))
	a := make([]int64, 5000)
	b := make([]int64, 5000)
	for i := range a {
		a[i] = rng.Int64N(10)
		b[i] = rng.Int64N(10)
	}
	if d := KSDistance(a, b); d > 0.05 {
		t.Fatalf("KS of same-law samples = %g, want < 0.05", d)
	}
}

// Property: veracity is symmetric and non-negative.
func TestVeracityProperties(t *testing.T) {
	f := func(seedA, seedB uint64, nA, nB uint8) bool {
		rngA := rand.New(rand.NewPCG(seedA, 1))
		rngB := rand.New(rand.NewPCG(seedB, 2))
		a := make([]float64, int(nA%50)+1)
		b := make([]float64, int(nB%50)+1)
		for i := range a {
			a[i] = rngA.Float64() + 0.01
		}
		for i := range b {
			b[i] = rngB.Float64() + 0.01
		}
		s1, err1 := VeracityScore(a, b)
		s2, err2 := VeracityScore(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return s1 >= 0 && math.Abs(s1-s2) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
