package bench

import (
	"time"

	"csb/internal/core"
	"csb/internal/graph"
	"csb/internal/stats"
)

// FourVs evaluates one generator on the four properties the paper's
// introduction defines for big-data benchmarks:
//
//   - Volume: the dataset size the generator produced.
//   - Velocity: the generation rate (edges per second, wall clock).
//   - Variety: attribute diversity — Shannon entropy of the generated
//     protocol/state codes and destination ports, reported alongside the
//     seed's entropy (a faithful generator matches it; a degenerate one
//     collapses it).
//   - Veracity: the degree and PageRank veracity scores of Section V-A.
type FourVs struct {
	Generator string

	VolumeEdges    int64
	VolumeVertices int64

	VelocityEdgesPerSec float64

	VarietyProtoState     float64 // entropy (bits) of (protocol,state)
	SeedVarietyProtoState float64
	VarietyDstPort        float64 // entropy (bits) of destination ports
	SeedVarietyDstPort    float64

	VeracityDegree   float64
	VeracityPageRank float64
}

// attrSamplesOf extracts the Variety sample vectors from a graph's edges.
func attrSamplesOf(g *graph.Graph) (protoState, dstPorts []int64) {
	cols := g.Cols()
	n := cols.Len()
	protoState = make([]int64, n)
	dstPorts = make([]int64, n)
	for i := 0; i < n; i++ {
		protoState[i] = int64(cols.Protocol(i))<<8 | int64(cols.State(i))
		dstPorts[i] = int64(cols.DstPort(i))
	}
	return protoState, dstPorts
}

// EvaluateFourVs runs both generators at the given size and scores each on
// the four V's against the seed.
func EvaluateFourVs(seed *core.Seed, synEdges int64, rngSeed uint64) ([]FourVs, error) {
	seedPS, seedDP := attrSamplesOf(seed.Graph)
	seedPSEntropy := stats.ShannonEntropy(seedPS)
	seedDPEntropy := stats.ShannonEntropy(seedDP)
	veracity, err := veracityScorer(seed)
	if err != nil {
		return nil, err
	}

	pgsk, err := pgskWithFit(seed, nil, rngSeed)
	if err != nil {
		return nil, err
	}
	gens := []core.Generator{
		&core.PGPBA{Fraction: 0.1, Seed: rngSeed},
		pgsk,
	}
	var out []FourVs
	for _, gen := range gens {
		start := time.Now()
		g, err := gen.Generate(seed, synEdges)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()

		ps, dp := attrSamplesOf(g)
		dv, pv, err := veracity(g)
		if err != nil {
			return nil, err
		}
		out = append(out, FourVs{
			Generator:             gen.Name(),
			VolumeEdges:           g.NumEdges(),
			VolumeVertices:        g.NumVertices(),
			VelocityEdgesPerSec:   float64(g.NumEdges()) / elapsed,
			VarietyProtoState:     stats.ShannonEntropy(ps),
			SeedVarietyProtoState: seedPSEntropy,
			VarietyDstPort:        stats.ShannonEntropy(dp),
			SeedVarietyDstPort:    seedDPEntropy,
			VeracityDegree:        dv,
			VeracityPageRank:      pv,
		})
	}
	return out, nil
}
