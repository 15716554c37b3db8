package core

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"sort"

	"csb/internal/cluster"
	"csb/internal/graph"
	"csb/internal/stats"
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
		// globally unique contiguous IDs: the i-th sampled edge's vertex is
		// firstID + i.
		firstID := numVertices
		numVertices += nNew
		if err := checkVertexLimit(numVertices); err != nil {
			endRound()
			return nil, err
		}

		// Lines 6-13: per sampled edge, pick the destination vertex and
		// create the out- and in-edges.
		inDeg, outDeg := seed.InDegree, seed.OutDegree
		newEdges := cluster.MapBlocks(sampled, "mapBlocks", p.Seed^(round*0x51ed), func(n int, runs iter.Seq[cluster.Run[endpoints]]) []endpoints {
			// Lines 7-9, all draws first: the destination (a random endpoint
			// of the sampled edge, stage two of the preferential attachment)
			// and the out- and in-degree of each new vertex. Nothing else
			// draws, so the output is sized exactly.
			type draw struct {
				v, dest   uint32
				nOut, nIn int64
			}
			draws, total := make([]draw, 0, n), int64(0)
			for r := range runs {
				for i, e := range r.Xs {
					d := draw{v: uint32(firstID + r.At + int64(i)), dest: e.src}
					if r.RNG.IntN(2) == 1 {
						d.dest = e.dst
					}
					d.nOut, d.nIn = max(outDeg.Sample(r.RNG), 0), max(inDeg.Sample(r.RNG), 0)
					draws = append(draws, d)
					total += d.nOut + d.nIn
				}
			}
			// Lines 10-12: each new vertex's out-edges to, then in-edges
			// from, its one destination.
			out := make([]endpoints, 0, total)
			for _, d := range draws {
				for range d.nOut {
					out = append(out, endpoints{d.v, d.dest})
				}
				for range d.nIn {
					out = append(out, endpoints{d.dest, d.v})
				}
			}
			return out
		})
		// Union grows the partition count every round, which costs
		// nothing: every later stage runs in blocks, DefaultPartitions tasks.
		edges = cluster.Union(edges, newEdges)
		endRound()
	}

	// Lines 15-20: property synthesis for every edge.
	return fillGraph(edges, numVertices, seed.Props, p.Seed^0xab5, p.SkipProperties)
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

// sampleWithReplacement extends cluster.Sample to fractions >= 1: it emits
// int(fraction * |E|) draws with replacement from the whole edge list,
// matching Spark's sample(withReplacement=true, fraction). Draw i comes from
// the stream of its block of the output index.
func sampleWithReplacement[T any](ds *cluster.Dataset[T], fraction float64, seed uint64) *cluster.Dataset[T] {
	if fraction < 1 {
		return cluster.Sample(ds, fraction, seed)
	}
	total, offsets := ds.Count(), ds.Offsets()
	return cluster.GenerateRemotable(ds.Cluster(), int64(fraction*float64(total)), seed, "",
		func(rng *stats.RNG, emit func(T), count int64) {
			for range count {
				g := int64(rng.IntN(int(total)))
				// The last partition starting at or before g holds it.
				i := sort.Search(len(offsets), func(i int) bool { return offsets[i] > g }) - 1
				emit(ds.Partition(i)[g-offsets[i]])
			}
		}, nil, nil)
}

// fillGraph is the last stage of both generators: it writes the endpoints
// into the output graph's columns and, unless skip is set, samples a fresh
// Netflow attribute set beside each (Figure 2 lines 15-20 and Figure 3
// lines 13-18), in O(|E| x |properties|).
func fillGraph(edges *cluster.Dataset[endpoints], numVertices int64, props *PropertyModel, seed uint64, skip bool) (*graph.Graph, error) {
	defer edges.Cluster().Scope("props")()
	return cluster.FillGraph(edges, numVertices, seed, func(r cluster.Run[endpoints], cols *graph.EdgeBatch) {
		for i, e := range r.Xs {
			at := int(r.At) + i
			cols.SetEndpoints(at, e.src, e.dst)
			if !skip {
				cols.SetProps(at, props.Sample(r.RNG))
			}
		}
	})
}

var _ Generator = (*PGPBA)(nil)
