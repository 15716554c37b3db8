package stats

import (
	"math"
	"sort"
)

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes descriptive statistics of xs. It returns a zero Summary
// for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n := len(sorted); n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return s
}

// SummarizeInt is Summarize over integer samples.
func SummarizeInt(xs []int64) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// PearsonCorrelation returns the sample correlation coefficient of two
// equal-length vectors, used to verify that the conditional attribute model
// preserves cross-attribute correlation (e.g. bytes vs packets).
func PearsonCorrelation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return math.NaN()
	}
	sa, sb := Summarize(a), Summarize(b)
	if sa.Std == 0 || sb.Std == 0 {
		return math.NaN()
	}
	var cov float64
	for i := range a {
		cov += (a[i] - sa.Mean) * (b[i] - sb.Mean)
	}
	cov /= float64(len(a) - 1)
	return cov / (sa.Std * sb.Std)
}
