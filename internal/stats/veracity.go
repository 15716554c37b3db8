package stats

import (
	"errors"
	"math"
	"sort"
)

// Typed vector errors. Normalize (and therefore VeracityScore) reports
// ErrEmptyVector on a zero-length input and ErrZeroVector when every element
// is zero; Pearson reports ErrLengthMismatch instead of panicking.
// The eval grid runner matches on these with errors.Is to classify a
// malformed cell without crashing the whole run.
var (
	ErrEmptyVector    = errors.New("stats: empty vector")
	ErrZeroVector     = errors.New("stats: all-zero vector")
	ErrLengthMismatch = errors.New("stats: vector length mismatch")
)

// VeracityScore computes the veracity of a synthetic dataset with respect to
// its seed: the average Euclidean distance of their normalized distributions
// (Section V-A of the paper). A smaller score means higher similarity.
//
// Both inputs are per-vertex metric vectors (degrees or PageRank values).
// Each vector is normalized by its own sum, sorted descending (aligning
// vertices by rank, since vertex identities do not correspond across graphs),
// the shorter vector is zero-padded to the longer one's length L, and the
// score is the Euclidean distance divided by L:
//
//	score = sqrt(sum_i (a_i - b_i)^2) / L
//
// This definition reproduces the paper's observed behaviour: scores shrink as
// the synthetic graph grows (its normalized values shrink roughly as 1/|V'|
// while L grows), and PageRank scores are many orders of magnitude below
// degree scores.
func VeracityScore(seed, synthetic []float64) (float64, error) {
	a, err := Normalize(seed)
	if err != nil {
		return 0, err
	}
	b, err := Normalize(synthetic)
	if err != nil {
		return 0, err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(a)))
	sort.Sort(sort.Reverse(sort.Float64Slice(b)))
	l := len(a)
	if len(b) > l {
		l = len(b)
	}
	var sum float64
	for i := 0; i < l; i++ {
		var av, bv float64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		d := av - bv
		sum += d * d
	}
	return math.Sqrt(sum) / float64(l), nil
}

// VeracityScoreInt is VeracityScore over integer metric vectors (degrees).
func VeracityScoreInt(seed, synthetic []int64) (float64, error) {
	a := make([]float64, len(seed))
	for i, v := range seed {
		a[i] = float64(v)
	}
	b := make([]float64, len(synthetic))
	for i, v := range synthetic {
		b[i] = float64(v)
	}
	return VeracityScore(a, b)
}

// KSDistance returns the Kolmogorov-Smirnov statistic between the empirical
// CDFs of two samples: the maximum absolute difference between their CDFs.
// Used by tests to check that generated attribute distributions track the
// seed distributions.
func KSDistance(a, b []int64) float64 {
	as := append([]int64(nil), a...)
	bs := append([]int64(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	var i, j int
	var maxD float64
	for i < len(as) && j < len(bs) {
		var x int64
		if as[i] <= bs[j] {
			x = as[i]
		} else {
			x = bs[j]
		}
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		d := math.Abs(float64(i)/float64(len(as)) - float64(j)/float64(len(bs)))
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}
