// Package pso implements Particle Swarm Optimization, the optimizer the
// paper suggests for tuning the anomaly-detection thresholds (Section IV,
// citing diversity-enhanced PSO). It is a standard global-best PSO over a
// box-bounded continuous search space.
package pso

import (
	"errors"
	"math/rand/v2"
)

// The velocity weights: Clerc-Kennedy constriction-like coefficients.
const (
	inertia   = 0.72 // velocity carry-over w
	cognitive = 1.49 // personal-best pull c1
	social    = 1.49 // global-best pull c2
)

// Config parameterizes Minimize. Zero fields select the defaults.
type Config struct {
	// Particles is the swarm size (default 24).
	Particles int
	// Iterations is the number of velocity/position updates (default 60).
	Iterations int
	// Seed drives the deterministic RNG.
	Seed uint64
}

func (c *Config) fill() {
	if c.Particles == 0 {
		c.Particles = 24
	}
	if c.Iterations == 0 {
		c.Iterations = 60
	}
}

// Bounds is the box constraint of the search space.
type Bounds struct {
	Lo []float64
	Hi []float64
}

func (b Bounds) validate() error {
	if len(b.Lo) == 0 || len(b.Lo) != len(b.Hi) {
		return errors.New("pso: bounds must be non-empty and equal length")
	}
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return errors.New("pso: lower bound exceeds upper bound")
		}
	}
	return nil
}

// Result is the best point found and its objective value.
type Result struct {
	Position []float64
	Value    float64
}

// Minimize searches for the position minimizing objective within bounds.
// The objective must be deterministic for reproducible runs.
func Minimize(objective func([]float64) float64, bounds Bounds, cfg Config) (*Result, error) {
	if objective == nil {
		return nil, errors.New("pso: nil objective")
	}
	if err := bounds.validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	if cfg.Particles < 2 {
		return nil, errors.New("pso: need at least 2 particles")
	}
	if cfg.Iterations < 1 {
		return nil, errors.New("pso: need at least 1 iteration")
	}
	dim := len(bounds.Lo)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x9507))

	pos := make([][]float64, cfg.Particles)
	vel := make([][]float64, cfg.Particles)
	best := make([][]float64, cfg.Particles)
	bestVal := make([]float64, cfg.Particles)
	var gBest []float64
	gBestVal := 0.0

	span := make([]float64, dim)
	for d := range span {
		span[d] = bounds.Hi[d] - bounds.Lo[d]
	}
	for i := 0; i < cfg.Particles; i++ {
		pos[i] = make([]float64, dim)
		vel[i] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			pos[i][d] = bounds.Lo[d] + rng.Float64()*span[d]
			vel[i][d] = (rng.Float64()*2 - 1) * span[d] * 0.1
		}
		best[i] = append([]float64(nil), pos[i]...)
		bestVal[i] = objective(pos[i])
		if gBest == nil || bestVal[i] < gBestVal {
			gBest = append([]float64(nil), pos[i]...)
			gBestVal = bestVal[i]
		}
	}

	for iter := 0; iter < cfg.Iterations; iter++ {
		for i := 0; i < cfg.Particles; i++ {
			for d := 0; d < dim; d++ {
				r1, r2 := rng.Float64(), rng.Float64()
				vel[i][d] = inertia*vel[i][d] +
					cognitive*r1*(best[i][d]-pos[i][d]) +
					social*r2*(gBest[d]-pos[i][d])
				// Velocity clamp keeps the swarm inside a useful range.
				if limit := span[d] * 0.5; vel[i][d] > limit {
					vel[i][d] = limit
				} else if vel[i][d] < -limit {
					vel[i][d] = -limit
				}
				pos[i][d] += vel[i][d]
				// Reflect at the walls.
				if pos[i][d] < bounds.Lo[d] {
					pos[i][d] = bounds.Lo[d]
					vel[i][d] = -vel[i][d] * 0.5
				} else if pos[i][d] > bounds.Hi[d] {
					pos[i][d] = bounds.Hi[d]
					vel[i][d] = -vel[i][d] * 0.5
				}
			}
			v := objective(pos[i])
			if v < bestVal[i] {
				bestVal[i] = v
				copy(best[i], pos[i])
				if v < gBestVal {
					gBestVal = v
					copy(gBest, pos[i])
				}
			}
		}
	}
	return &Result{Position: gBest, Value: gBestVal}, nil
}
