package bench

import (
	"fmt"

	"csb/internal/core"
	"csb/internal/genmodels"
	"csb/internal/graph"
	"csb/internal/stats"
)

// BaselinePoint scores one generator model against the seed.
type BaselinePoint struct {
	Model    string
	Edges    int64
	Degree   float64 // degree veracity (lower is better)
	PageRank float64 // PageRank veracity (lower is better)
	// DegreeKS is the Kolmogorov-Smirnov distance between the seed's and
	// the model's mean-normalized degree distributions.
	DegreeKS float64
	// TailRatio is max(degree)/mean(degree): the hub indicator. Scale-free
	// models land near the seed's ratio; ER and WS collapse toward ~2 —
	// the paper's Section II argument ("small or zero number of highly
	// connected vertices") made quantitative.
	TailRatio float64
}

// Baselines compares the classical random-graph models of Section II with
// the paper's generators at a common synthetic size: every model is
// parameterized from the seed (edge budget, degree sequences, fitted
// initiator), and scored by degree and PageRank veracity. The scale-free
// growth models (PGPBA, PGSK, and to a lesser degree Chung-Lu and R-MAT)
// dominate the structure-free baselines (ER, WS), which is the quantitative
// version of the paper's Section II argument.
func Baselines(seed *core.Seed, synEdges int64, rngSeed uint64) ([]BaselinePoint, error) {
	veracity, err := veracityScorer(seed)
	if err != nil {
		return nil, err
	}
	seedDeg := seed.Graph.Degrees()
	var out []BaselinePoint
	score := func(model string, g *graph.Graph) error {
		deg, pr, err := veracity(g)
		if err != nil {
			return err
		}
		out = append(out, BaselinePoint{Model: model, Edges: g.NumEdges(),
			Degree: deg, PageRank: pr,
			DegreeKS:  stats.KSDistance(normalizedDegreeSample(seedDeg), normalizedDegreeSample(g.Degrees())),
			TailRatio: tailRatio(g.Degrees())})
		return nil
	}

	// Scale factor from seed to synthetic size.
	scale := float64(synEdges) / float64(seed.Graph.NumEdges())
	n := int64(float64(seed.Graph.NumVertices()) * scale)
	if n < 4 {
		n = 4
	}

	// Erdős-Rényi with the same edge budget.
	if er, err := genmodels.ErdosRenyi(n, min64(synEdges, n*(n-1)), rngSeed); err == nil {
		if err := score("erdos-renyi", er); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("baselines ER: %w", err)
	}

	// Watts-Strogatz with matching mean degree.
	k := int(synEdges / n)
	if k < 1 {
		k = 1
	}
	if int64(k) >= n {
		k = int(n) - 1
	}
	if ws, err := genmodels.WattsStrogatz(n, k, 0.1, rngSeed); err == nil {
		if err := score("watts-strogatz", ws); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("baselines WS: %w", err)
	}

	// Chung-Lu with the seed's degree sequences tiled to size n.
	outSeq := make([]float64, n)
	inSeq := make([]float64, n)
	seedOut := seed.Graph.OutDegrees()
	seedIn := seed.Graph.InDegrees()
	for i := int64(0); i < n; i++ {
		outSeq[i] = float64(seedOut[i%seed.Graph.NumVertices()])
		inSeq[i] = float64(seedIn[i%seed.Graph.NumVertices()])
	}
	if cl, err := genmodels.ChungLu(outSeq, inSeq, rngSeed); err == nil {
		if err := score("chung-lu", cl); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("baselines CL: %w", err)
	}

	// R-MAT with quadrant probabilities from the fitted Kronecker initiator.
	pgsk, err := pgskWithFit(seed, nil, rngSeed)
	if err != nil {
		return nil, err
	}
	th := pgsk.Initiator.Theta
	sum := th[0] + th[1] + th[2] + th[3]
	scaleBits := 1
	for int64(1)<<uint(scaleBits) < n {
		scaleBits++
	}
	if rm, err := genmodels.RMAT(scaleBits, synEdges, th[0]/sum, th[1]/sum, th[2]/sum, th[3]/sum, rngSeed); err == nil {
		if err := score("rmat", rm); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("baselines RMAT: %w", err)
	}

	// The paper's generators.
	pgpba := &core.PGPBA{Fraction: 0.1, Seed: rngSeed}
	ga, err := pgpba.Generate(seed, synEdges)
	if err != nil {
		return nil, err
	}
	if err := score("pgpba", ga); err != nil {
		return nil, err
	}
	gk, err := pgsk.Generate(seed, synEdges)
	if err != nil {
		return nil, err
	}
	if err := score("pgsk", gk); err != nil {
		return nil, err
	}
	return out, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// tailRatio returns max(degree)/mean(degree) over positive-degree vertices.
func tailRatio(degrees []int64) float64 {
	var sum, maxD, n int64
	for _, d := range degrees {
		if d > 0 {
			sum += d
			n++
			if d > maxD {
				maxD = d
			}
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(maxD) / (float64(sum) / float64(n))
}

// normalizedDegreeSample rescales a degree vector by its mean (x1000, as
// integer permilles) so KS compares distribution shapes independently of
// graph size.
func normalizedDegreeSample(degrees []int64) []int64 {
	var sum int64
	var n int64
	for _, d := range degrees {
		if d > 0 {
			sum += d
			n++
		}
	}
	if n == 0 {
		return nil
	}
	mean := float64(sum) / float64(n)
	out := make([]int64, 0, n)
	for _, d := range degrees {
		if d > 0 {
			out = append(out, int64(float64(d)/mean*1000))
		}
	}
	return out
}
