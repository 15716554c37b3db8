// Package stats provides the statistical machinery of the data generators:
// empirical discrete distributions with inverse-CDF sampling, power-law
// maximum-likelihood fitting, log-binned histograms for degree plots, and the
// veracity score used to compare synthetic datasets against their seed.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Discrete is an empirical probability distribution over int64 values, built
// from observed samples or counts. Sampling uses the Vose alias method,
// O(1) per draw; probability and CDF queries use binary search over the
// cumulative weights.
//
// It is the distribution object of the paper's generators: the pre-computed
// in-/out-degree distributions and every Netflow attribute distribution are
// Discrete values. The generators draw |E| x |properties| samples, so the
// constant-time alias draw is what keeps property synthesis at the paper's
// O(|E| x |properties|) with a small constant.
type Discrete struct {
	values []int64   // distinct observed values, ascending
	cum    []float64 // cumulative probability, cum[len-1] == 1
	mean   float64

	// Vose alias table: pick i uniformly, then keep i with probability
	// slots[i].keep / 2^53, else take slots[i].alias.
	slots []aliasSlot
	// pmfVals keeps the exact pmf aligned with values, for serialization.
	pmfVals []float64
}

// aliasSlot is one Vose alias column. keep is the column's own probability
// p as the 53-bit threshold ceil(p * 2^53): for the integer u53 behind a
// Float64 draw, u53/2^53 < p exactly when u53 < keep, because u53/2^53 is
// exact and p * 2^53 is an exact scaling. One slot holds both loads a draw
// needs.
type aliasSlot struct {
	keep  uint64
	alias int32
}

// pmf returns the exact probability mass function aligned with Support().
func (d *Discrete) pmf() []float64 { return d.pmfVals }

// FromSamples builds a Discrete from raw observations.
func FromSamples(samples []int64) (*Discrete, error) {
	if len(samples) == 0 {
		return nil, errors.New("stats: no samples")
	}
	counts := make(map[int64]int64, 256)
	for _, s := range samples {
		counts[s]++
	}
	return FromCounts(counts)
}

// FromCounts builds a Discrete from value -> count (or any non-negative
// weight) pairs. At least one count must be positive.
func FromCounts(counts map[int64]int64) (*Discrete, error) {
	if len(counts) == 0 {
		return nil, errors.New("stats: empty counts")
	}
	values := make([]int64, 0, len(counts))
	var total int64
	for v, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("stats: negative count %d for value %d", c, v)
		}
		if c > 0 {
			values = append(values, v)
			total += c
		}
	}
	if total == 0 {
		return nil, errors.New("stats: all counts zero")
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	cum := make([]float64, len(values))
	var running float64
	var mean float64
	for i, v := range values {
		p := float64(counts[v]) / float64(total)
		running += p
		cum[i] = running
		mean += p * float64(v)
	}
	cum[len(cum)-1] = 1 // guard against floating point drift
	d := &Discrete{values: values, cum: cum, mean: mean}
	pmf := make([]float64, len(values))
	for i, v := range values {
		pmf[i] = float64(counts[v]) / float64(total)
	}
	d.buildAliasFromPMF(pmf)
	return d, nil
}

// buildAliasFromPMF constructs the Vose alias table in O(k) from the
// probability mass function aligned with d.values.
func (d *Discrete) buildAliasFromPMF(pmf []float64) {
	n := len(d.values)
	d.pmfVals = append([]float64(nil), pmf...)
	d.slots = make([]aliasSlot, n)
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := range d.values {
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
		d.slots[s] = aliasSlot{keep: uint64(math.Ceil(scaled[s] * (1 << 53))), alias: l}
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		d.slots[i] = aliasSlot{keep: 1 << 53, alias: i}
	}
	for _, i := range small { // numerical leftovers
		d.slots[i] = aliasSlot{keep: 1 << 53, alias: i}
	}
}

// Sample draws one value from the distribution using rng in O(1).
func (d *Discrete) Sample(rng *RNG) int64 { return d.values[d.SampleIndex(rng)] }

// SampleIndex is Sample returning the drawn value's index into Support():
// the same two RNG calls in the same order, so a caller holding a table
// aligned with Support() can swap one for the other without moving a stream.
// The second call is the Uint64 behind rng.Float64, compared as an integer;
// the keep-or-alias choice is a conditional move, not a branch.
func (d *Discrete) SampleIndex(rng *RNG) int {
	i := rng.IntN(len(d.slots))
	u53 := rng.Uint64() << 11 >> 11
	s := d.slots[i]
	a := int(s.alias)
	if u53 < s.keep {
		a = i
	}
	return a
}

// Mean returns the expected value.
func (d *Discrete) Mean() float64 { return d.mean }

// Support returns the distinct values in ascending order. The slice is
// shared; callers must not modify it.
func (d *Discrete) Support() []int64 { return d.values }

// Prob returns P[X == v].
func (d *Discrete) Prob(v int64) float64 {
	i := sort.Search(len(d.values), func(i int) bool { return d.values[i] >= v })
	if i == len(d.values) || d.values[i] != v {
		return 0
	}
	if i == 0 {
		return d.cum[0]
	}
	return d.cum[i] - d.cum[i-1]
}

// CDF returns P[X <= v].
func (d *Discrete) CDF(v int64) float64 {
	i := sort.Search(len(d.values), func(i int) bool { return d.values[i] > v })
	if i == 0 {
		return 0
	}
	return d.cum[i-1]
}

// Min and Max return the support bounds.
func (d *Discrete) Min() int64 { return d.values[0] }

// Max returns the largest supported value.
func (d *Discrete) Max() int64 { return d.values[len(d.values)-1] }

// DegreeDistribution builds the Discrete distribution of a degree vector,
// the "pre-computed in- and out-degree probability distributions" of the
// seed-analysis step (Figure 1). Zero-degree vertices are excluded, matching
// degree-distribution convention (a new vertex must attach at least once).
func DegreeDistribution(degrees []int64) (*Discrete, error) {
	counts := make(map[int64]int64, 64)
	for _, d := range degrees {
		if d > 0 {
			counts[d]++
		}
	}
	if len(counts) == 0 {
		return nil, errors.New("stats: degree vector has no positive entries")
	}
	return FromCounts(counts)
}

// Normalize divides each element of xs by the sum of all elements, returning
// the normalized vector. This is the normalization used by the paper for
// degree and PageRank distributions prior to veracity scoring. An empty
// input reports ErrEmptyVector, an all-zero input ErrZeroVector, and a
// non-finite sum a plain error; all are returned (never panicked) so grid
// evaluation can classify malformed cells.
func Normalize(xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("%w: cannot normalize", ErrEmptyVector)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		return nil, fmt.Errorf("%w: cannot normalize", ErrZeroVector)
	}
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		return nil, fmt.Errorf("stats: cannot normalize, sum = %v", sum)
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / sum
	}
	return out, nil
}
