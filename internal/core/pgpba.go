package core

import (
	"errors"
	"fmt"
	"math"

	"csb/internal/cluster"
	"csb/internal/graph"
)

// Generator is the shared contract of the two data generators.
type Generator interface {
	// Generate grows the analyzed seed to a synthetic property graph with
	// at least desiredEdges edges (probabilistic algorithms may overshoot
	// slightly, as the paper notes in Section V).
	Generate(seed *Seed, desiredEdges int64) (*graph.Graph, error)
	// Name identifies the generator in reports.
	Name() string
}

// Generator names, as job specs, scenario backgrounds, grid cells and the
// CLIs spell them.
const (
	GenPGPBA = "pgpba"
	GenPGSK  = "pgsk"
)

// NewGenerator builds the named generator with every other knob at its
// default. fraction is PGPBA's and ignored for PGSK; c may be nil (the
// default local cluster).
func NewGenerator(name string, fraction float64, seed uint64, c *cluster.Cluster) (Generator, error) {
	switch name {
	case GenPGPBA:
		return &PGPBA{Fraction: fraction, Seed: seed, Cluster: c}, nil
	case GenPGSK:
		return &PGSK{Seed: seed, Cluster: c}, nil
	default:
		return nil, fmt.Errorf("core: unknown generator %q (want %s or %s)", name, GenPGPBA, GenPGSK)
	}
}

// PGPBA is the Property-Graph Parallel Barabási-Albert generator
// (Figure 2). Each round samples fraction*|E| edges from the current edge
// list (stage one of the two-stage preferential attachment), creates one
// new vertex per sampled edge, attaches it to a random endpoint of its
// sampled edge (stage two), and creates out- and in-edges between the new
// vertex and its destination according to the seed's out- and in-degree
// distributions. Finally every edge receives Netflow attributes sampled
// from the seed's property model.
type PGPBA struct {
	// Fraction is the ratio of newly added vertices to current edges per
	// round. Values above 1 sample with replacement (the paper's Figure 9
	// uses fraction = 2 to match PGSK's doubling).
	Fraction float64
	// Seed drives the deterministic RNG.
	Seed uint64
	// Cluster executes the Map-Reduce stages (nil means a local cluster).
	Cluster *cluster.Cluster
	// SkipProperties suppresses the property-synthesis pass; used by the
	// Figure 10 overhead measurement.
	SkipProperties bool
	// IndependentProps samples attributes without the IN_BYTES
	// conditioning (ablation).
	IndependentProps bool
	// SpreadAttachment is a design-space ablation of Figure 2: instead of
	// connecting all of a new vertex's out- and in-edges to the single
	// destination of its sampled edge (the paper's lines 10-11), each edge
	// re-samples its own destination from the sampled edge list. This
	// matches classic BA more closely and reduces hub amplification at the
	// cost of one extra sample per edge.
	SpreadAttachment bool
}

// Name implements Generator.
func (p *PGPBA) Name() string { return "PGPBA" }

// Generate implements Generator, following Figure 2 line by line on the
// cluster substrate.
func (p *PGPBA) Generate(seed *Seed, desiredEdges int64) (*graph.Graph, error) {
	if seed == nil || seed.Graph == nil || seed.Graph.NumEdges() == 0 {
		return nil, errors.New("pgpba: empty seed")
	}
	// NaN fails every comparison, so "<= 0" alone would let it through and
	// the growth loop would sample zero edges forever.
	if !(p.Fraction > 0) || math.IsInf(p.Fraction, 0) {
		return nil, fmt.Errorf("pgpba: fraction must be positive and finite, got %v", p.Fraction)
	}
	if desiredEdges <= seed.Graph.NumEdges() {
		return nil, fmt.Errorf("pgpba: desired size %d must exceed seed size %d",
			desiredEdges, seed.Graph.NumEdges())
	}
	c := p.Cluster
	if c == nil {
		c = cluster.Local(0)
	}
	defer c.Scope("pgpba")()

	// G' <- G (line 1). Growth is structural, so the rounds carry only the
	// 8-byte endpoints; attributes are synthesized once, at the end, straight
	// into the output columns.
	edges := cluster.Parallelize(c, endpointsOf(seed.Graph.Cols()), 0)
	numVertices := seed.Graph.NumVertices()
	round := uint64(0)

	// Expected edges added per sampled edge: one new vertex attaching with
	// out- plus in-degree samples. Used to shrink the final round so the
	// output lands near desired_size instead of overshooting by a full
	// round.
	perVertex := seed.OutDegree.Mean() + seed.InDegree.Mean()

	// while |E'| < desired_size (line 2).
	for {
		// Cancellation boundary: a cancelled job stops between rounds
		// instead of growing to completion.
		if err := c.Err(); err != nil {
			return nil, err
		}
		have := edges.Count()
		if have >= desiredEdges {
			break
		}
		round++
		endRound := c.Scope(fmt.Sprintf("round%d", round))
		fraction := p.Fraction
		if expect := fraction * float64(have) * perVertex; expect > float64(desiredEdges-have) {
			fraction = float64(desiredEdges-have) / (float64(have) * perVertex)
			if fraction*float64(have) < 1 {
				fraction = 1 / float64(have) // keep expecting >= 1 sample
			}
		}
		// Line 3: sample the edge list. Stage one of the preferential
		// attachment: an edge is sampled with probability proportional to
		// nothing but its presence, and a vertex appears once per incident
		// edge, so endpoint frequency is degree-proportional.
		sampled := sampleWithReplacement(edges, fraction, p.Seed^round*0x9e3779b97f4a7c15)
		nNew := sampled.Count()
		if nNew == 0 {
			endRound()
			continue
		}
		// Lines 4-5: create empty vertices, one per sampled edge, with
		// globally unique contiguous IDs handed out per partition.
		firstID := numVertices
		numVertices += nNew
		if err := checkVertexLimit(numVertices); err != nil {
			endRound()
			return nil, err
		}
		offsets := sampled.Offsets()

		// Lines 6-13: per sampled edge, pick the destination vertex and
		// create the out- and in-edges.
		inDeg, outDeg := seed.InDegree, seed.OutDegree
		newEdges := cluster.MapPartitions(sampled, func(part int, es []endpoints) []endpoints {
			rng := cluster.DeriveRNG(p.Seed^(round*0x51ed), uint64(part))
			pickDest := func(e endpoints) uint32 {
				// Line 7: random endpoint of a sampled edge (stage two of
				// the preferential attachment).
				if rng.IntN(2) == 1 {
					return e.dst
				}
				return e.src
			}
			// Lines 7-9: destination and degree samples of one new vertex.
			type draw struct {
				dest      uint32
				nOut, nIn int64
			}
			next := func(e endpoints) draw {
				return draw{pickDest(e), max(outDeg.Sample(rng), 0), max(inDeg.Sample(rng), 0)}
			}
			// Lines 10-12: edge creation for the i-th new vertex. The
			// paper's variant reuses one destination for every edge; the
			// spread ablation re-samples per edge.
			grow := func(out []endpoints, i int, d draw) []endpoints {
				newV := uint32(firstID + offsets[part] + int64(i))
				for j := int64(0); j < d.nOut+d.nIn; j++ {
					dest := d.dest
					if p.SpreadAttachment {
						dest = pickDest(es[rng.IntN(len(es))])
					}
					if j < d.nOut {
						out = append(out, endpoints{newV, dest})
					} else {
						out = append(out, endpoints{dest, newV})
					}
				}
				return out
			}
			if p.SpreadAttachment {
				// The per-edge draws interleave with the per-vertex ones
				// (whose dest goes unused, as it always did), so the output
				// can only be sized to its expectation.
				out := make([]endpoints, 0, int(float64(len(es))*perVertex))
				for i, e := range es {
					out = grow(out, i, next(e))
				}
				return out
			}
			// Nothing else draws from rng, so every vertex's draws come
			// first and the output is sized exactly.
			draws, total := make([]draw, len(es)), int64(0)
			for i, e := range es {
				draws[i] = next(e)
				total += draws[i].nOut + draws[i].nIn
			}
			out := make([]endpoints, 0, total)
			for i, d := range draws {
				out = grow(out, i, d)
			}
			return out
		})
		edges = cluster.Union(edges, newEdges)
		// Union grows the partition count every round; coalesce once it
		// exceeds a few times the cluster's tuned partitioning so per-task
		// overhead stays amortized.
		if limit := c.Config().DefaultPartitions; edges.NumPartitions() > 4*limit {
			edges = cluster.Coalesce(edges, limit)
		}
		endRound()
	}

	// Rebalance before the dominant property-synthesis stage: the growth
	// rounds leave a mix of heavy and near-empty partitions behind.
	if limit := c.Config().DefaultPartitions; edges.NumPartitions() > limit {
		endRebalance := c.Scope("rebalance")
		edges = cluster.Coalesce(edges, limit)
		endRebalance()
	}

	// Lines 15-20: property synthesis for every edge.
	return fillGraph(edges, numVertices, seed.Props, p.Seed^0xab5, p.SkipProperties, p.IndependentProps)
}

// endpoints is the structural element both generators grow on: an edge
// without its attributes, in the width of the graph's src/dst columns.
type endpoints struct{ src, dst uint32 }

// endpointsOf copies the src/dst columns of b into one row slice.
func endpointsOf(b *graph.EdgeBatch) []endpoints {
	out := make([]endpoints, b.Len())
	for i := range out {
		out[i] = endpoints{uint32(b.SrcID(i)), uint32(b.DstID(i))}
	}
	return out
}

// checkVertexLimit refuses a vertex count whose IDs the 32-bit columns (and
// endpoints) cannot hold.
func checkVertexLimit(numVertices int64) error {
	if numVertices > int64(graph.MaxBatchVertexID)+1 {
		return fmt.Errorf("pgpba: %d vertices exceed the columnar limit 2^32", numVertices)
	}
	return nil
}

// sampleWithReplacement extends cluster.Sample to fractions >= 1: each
// partition emits round(fraction * len) draws with replacement, matching
// Spark's sample(withReplacement=true, fraction).
func sampleWithReplacement[T any](ds *cluster.Dataset[T], fraction float64, seed uint64) *cluster.Dataset[T] {
	if fraction < 1 {
		return cluster.Sample(ds, fraction, seed)
	}
	return cluster.MapPartitions(ds, func(part int, es []T) []T {
		if len(es) == 0 {
			return nil
		}
		rng := cluster.DeriveRNG(seed, uint64(part))
		n := int(fraction * float64(len(es)))
		out := make([]T, n)
		for i := range out {
			out[i] = es[rng.IntN(len(es))]
		}
		return out
	})
}

// fillGraph is the last stage of both generators: task i writes partition
// i's endpoints into the output graph's columns and, unless skip is set,
// samples a fresh Netflow attribute set beside each (Figure 2 lines 15-20 and
// Figure 3 lines 13-18), in O(|E| x |properties|).
func fillGraph(edges *cluster.Dataset[endpoints], numVertices int64, props *PropertyModel, seed uint64, skip, independent bool) (*graph.Graph, error) {
	defer edges.Cluster().Scope("props")()
	return cluster.FillGraph(edges, numVertices, func(part int, es []endpoints, cols *graph.EdgeBatch, at int) {
		rng := cluster.DeriveRNG(seed, uint64(part))
		for i, e := range es {
			cols.SetEndpoints(at+i, e.src, e.dst)
			switch {
			case skip:
			case independent:
				cols.SetProps(at+i, props.SampleIndependent(rng))
			default:
				cols.SetProps(at+i, props.Sample(rng))
			}
		}
	})
}

var _ Generator = (*PGPBA)(nil)
