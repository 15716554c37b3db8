package core

import (
	"errors"
	"fmt"
	"math"

	"csb/internal/cluster"
	"csb/internal/graph"
	"csb/internal/kronecker"
	"csb/internal/kronfit"
)

// PGSK is the Property-Graph Stochastic Kronecker generator (Figure 3).
// The seed property multigraph is projected to a simple graph Gp (lines
// 1-5), KronFit estimates a 2x2 initiator from it (line 6), the stochastic
// Kronecker expansion places distinct edges by parallel recursive descent
// with RDD.distinct semantics (line 7), every resulting edge is duplicated
// according to the seed's out-degree distribution (lines 8-12, restoring
// multigraph structure), and Netflow attributes are sampled for every edge
// (lines 13-18).
type PGSK struct {
	// Seed drives the deterministic RNG.
	Seed uint64
	// Cluster executes the Map-Reduce stages (nil means a local cluster).
	Cluster *cluster.Cluster
	// Fit configures the KronFit step. The zero value uses the defaults.
	Fit kronfit.Config
	// Initiator, when non-nil, skips KronFit and uses the given matrix
	// directly (lets sweeps reuse one fit, as the paper's experiments do).
	Initiator *kronecker.Initiator
	// SkipProperties suppresses property synthesis (Figure 10 overhead
	// measurement).
	SkipProperties bool
	// IndependentProps samples attributes without the IN_BYTES
	// conditioning (ablation).
	IndependentProps bool
}

// Name implements Generator.
func (p *PGSK) Name() string { return "PGSK" }

// FitSeed runs the KronFit stage alone and returns the fitted initiator,
// so callers sweeping many sizes can pay for the fit once.
func (p *PGSK) FitSeed(seed *Seed) (kronecker.Initiator, error) {
	res, err := p.FitResult(seed)
	if err != nil {
		return kronecker.Initiator{}, err
	}
	return res.Initiator, nil
}

// FitResult is FitSeed keeping the fit's diagnostics: likelihoods and the
// deterministic work counters.
func (p *PGSK) FitResult(seed *Seed) (*kronfit.Result, error) {
	cfg := p.Fit
	if cfg.Seed == 0 {
		cfg.Seed = p.Seed
	}
	return kronfit.FitForGeneration(seed.Graph, cfg)
}

// Generate implements Generator following Figure 3.
func (p *PGSK) Generate(seed *Seed, desiredEdges int64) (*graph.Graph, error) {
	if seed == nil || seed.Graph == nil || seed.Graph.NumEdges() == 0 {
		return nil, errors.New("pgsk: empty seed")
	}
	if desiredEdges < 1 {
		return nil, errors.New("pgsk: desired size must be positive")
	}
	c := p.Cluster
	if c == nil {
		c = cluster.Local(0)
	}

	// Lines 1-6: Gp projection + KronFit (or a caller-provided initiator).
	var init kronecker.Initiator
	if p.Initiator != nil {
		init = *p.Initiator
	} else {
		var err error
		if init, err = p.FitSeed(seed); err != nil {
			return nil, err
		}
	}

	// The duplication step multiplies the distinct Kronecker edges by the
	// seed's mean out-degree, so the expansion targets desired/mean edges.
	meanOut := seed.OutDegree.Mean()
	if meanOut < 1 {
		meanOut = 1
	}
	distinctTarget := int64(math.Ceil(float64(desiredEdges) / meanOut))
	if distinctTarget < 1 {
		distinctTarget = 1
	}
	k, err := iterationsFor(init, distinctTarget)
	if err != nil {
		return nil, err
	}

	defer c.Scope("pgsk")()

	// Line 7: parallel stochastic Kronecker expansion with distinct edges.
	gk, err := kronecker.GenerateParallel(c, init, k, distinctTarget, p.Seed^0x5109)
	if err != nil {
		return nil, err
	}

	// Lines 8-12: duplicate each structural edge per the out-degree
	// distribution, restoring the multigraph nature of Netflow data.
	outDeg := seed.OutDegree
	endDup := c.Scope("duplicate")
	base := cluster.Parallelize(c, endpointsOf(gk.Cols()), 0)
	edges := cluster.MapPartitions(base, func(part int, es []endpoints) []endpoints {
		rng := cluster.DeriveRNG(p.Seed^0xd0b1e, uint64(part))
		// The copy counts are the only draws, so they come first and the
		// output is sized exactly.
		counts := make([]int64, len(es))
		var total int64
		for i := range es {
			counts[i] = max(outDeg.Sample(rng), 1)
			total += counts[i]
		}
		out := make([]endpoints, 0, total)
		for i, e := range es {
			for j := int64(0); j < counts[i]; j++ {
				out = append(out, e)
			}
		}
		return out
	})
	endDup()

	// Lines 13-18: property synthesis.
	return fillGraph(edges, gk.NumVertices(), seed.Props, p.Seed^0xab5, p.SkipProperties, p.IndependentProps)
}

// iterationsFor returns the smallest Kronecker power k whose vertex grid can
// hold `edges` distinct edges and whose expected edge count reaches them.
func iterationsFor(init kronecker.Initiator, edges int64) (int, error) {
	s := init.Sum()
	if s <= 1 {
		return 0, fmt.Errorf("pgsk: initiator sum %.3f cannot grow (need > 1)", s)
	}
	k := 1
	for ; k <= 60; k++ {
		n := kronecker.NumVertices(k)
		if init.ExpectedEdges(k) >= float64(edges) && n*n >= edges*2 {
			return k, nil
		}
	}
	return 0, fmt.Errorf("pgsk: no feasible iteration count for %d edges", edges)
}

var _ Generator = (*PGSK)(nil)
