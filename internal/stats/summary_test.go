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
