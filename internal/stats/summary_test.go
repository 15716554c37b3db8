package stats

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Fatalf("Summarize = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(5.0/3)) > 1e-12 {
		t.Fatalf("Std = %g", s.Std)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty summary nonzero")
	}
	odd := SummarizeInt([]int64{3, 1, 2})
	if odd.Median != 2 {
		t.Fatalf("odd median = %g, want 2", odd.Median)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if r := PearsonCorrelation(a, b); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation = %g, want 1", r)
	}
	c := []float64{10, 8, 6, 4, 2}
	if r := PearsonCorrelation(a, c); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anti-correlation = %g, want -1", r)
	}
	if !math.IsNaN(PearsonCorrelation(a, []float64{1})) {
		t.Fatal("length mismatch did not return NaN")
	}
	if !math.IsNaN(PearsonCorrelation([]float64{1, 1}, []float64{2, 3})) {
		t.Fatal("zero-variance input did not return NaN")
	}
}
