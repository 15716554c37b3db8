package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestFitPowerLawRecoversAlpha(t *testing.T) {
	// Generate from a known power law and check the MLE recovers alpha.
	// The Clauset discrete-MLE approximation is accurate for xmin >~ 6,
	// so fit with xmin = 10.
	for _, alpha := range []float64{1.8, 2.5, 3.2} {
		truth := &PowerLaw{Alpha: alpha, Xmin: 10}
		rng := rand.New(rand.NewPCG(uint64(alpha*1000), 4))
		samples := make([]int64, 30000)
		for i := range samples {
			samples[i] = truth.Sample(rng)
		}
		fit, err := FitPowerLaw(samples, 10)
		if err != nil {
			t.Fatalf("alpha=%g: %v", alpha, err)
		}
		if math.Abs(fit.Alpha-alpha) > 0.15 {
			t.Errorf("fitted alpha = %g, want ~%g", fit.Alpha, alpha)
		}
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw([]int64{5, 6}, 0); err == nil {
		t.Error("accepted xmin = 0")
	}
	if _, err := FitPowerLaw([]int64{1}, 1); err == nil {
		t.Error("accepted single sample")
	}
	if _, err := FitPowerLaw([]int64{1, 2, 3}, 100); err == nil {
		t.Error("accepted samples all below xmin")
	}
}

func TestPowerLawSampleBounds(t *testing.T) {
	p := &PowerLaw{Alpha: 2.1, Xmin: 3}
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 10000; i++ {
		if v := p.Sample(rng); v < 3 {
			t.Fatalf("sample %d below xmin", v)
		}
	}
}

func TestPowerLawHeavyTail(t *testing.T) {
	// A smaller alpha must produce a heavier tail (larger max over a fixed
	// number of draws), statistically.
	draw := func(alpha float64, seed uint64) int64 {
		p := &PowerLaw{Alpha: alpha, Xmin: 1}
		rng := rand.New(rand.NewPCG(seed, 6))
		var maxV int64
		for i := 0; i < 20000; i++ {
			if v := p.Sample(rng); v > maxV {
				maxV = v
			}
		}
		return maxV
	}
	if draw(1.7, 11) <= draw(3.5, 11) {
		t.Error("alpha=1.7 tail not heavier than alpha=3.5")
	}
}
