package stats

import (
	"errors"
	"math"
	"math/rand/v2"
)

// PowerLaw is a discrete power-law distribution p(x) ∝ x^-alpha for
// x >= Xmin, the degree law that scale-free generators target:
// P(k) ~ k^-alpha with alpha > 1.
type PowerLaw struct {
	Alpha float64
	Xmin  int64
}

// FitPowerLaw estimates the power-law exponent of samples >= xmin by the
// discrete maximum-likelihood approximation of Clauset, Shalizi & Newman:
//
//	alpha ≈ 1 + n / sum_i ln(x_i / (xmin - 0.5))
//
// Samples below xmin are ignored. It returns an error when fewer than two
// samples are usable.
func FitPowerLaw(samples []int64, xmin int64) (*PowerLaw, error) {
	if xmin < 1 {
		return nil, errors.New("stats: xmin must be >= 1")
	}
	var n int
	var logSum float64
	den := float64(xmin) - 0.5
	for _, x := range samples {
		if x >= xmin {
			n++
			logSum += math.Log(float64(x) / den)
		}
	}
	if n < 2 || logSum <= 0 {
		return nil, errors.New("stats: not enough samples above xmin for power-law fit")
	}
	return &PowerLaw{Alpha: 1 + float64(n)/logSum, Xmin: xmin}, nil
}

// Sample draws one value by inverting the continuous approximation of the
// power-law CDF and rounding down, a standard generator for discrete
// power-law variates.
func (p *PowerLaw) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	// Continuous inverse: x = xmin * (1-u)^(-1/(alpha-1)), floored.
	x := (float64(p.Xmin) - 0.5) * math.Pow(1-u, -1/(p.Alpha-1))
	v := int64(math.Floor(x + 0.5))
	if v < p.Xmin {
		v = p.Xmin
	}
	return v
}
