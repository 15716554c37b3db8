// Package kronecker implements the stochastic Kronecker graph generator
// (SKG; Leskovec et al., JMLR 2010), which places the expected number of
// edges by recursive descent through a 2x2 probability initiator — the
// "ball dropping" procedure whose Map-Reduce form the paper parallelizes for
// PGSK.
package kronecker

import (
	"errors"
	"fmt"
	"math"

	"csb/internal/cluster"
	"csb/internal/graph"
	"csb/internal/stats"
)

// Initiator is a 2x2 stochastic initiator matrix. Theta[0] is θ00 (the
// core-core probability), Theta[1] is θ01, Theta[2] is θ10 and Theta[3] is
// θ11 (the periphery-periphery probability).
type Initiator struct {
	Theta [4]float64
}

// DefaultInitiator is the customary KronFit starting point.
func DefaultInitiator() Initiator {
	return Initiator{Theta: [4]float64{0.9, 0.5, 0.5, 0.1}}
}

// Validate checks that every entry is a probability and the matrix is not
// degenerate.
func (in Initiator) Validate() error {
	var sum float64
	for i, t := range in.Theta {
		if t < 0 || t > 1 || math.IsNaN(t) {
			return fmt.Errorf("kronecker: theta[%d] = %v out of [0,1]", i, t)
		}
		sum += t
	}
	if sum == 0 {
		return errors.New("kronecker: all-zero initiator")
	}
	return nil
}

// Sum returns Σθ, whose k-th power is the expected edge count of the k-th
// Kronecker power.
func (in Initiator) Sum() float64 {
	return in.Theta[0] + in.Theta[1] + in.Theta[2] + in.Theta[3]
}

// SumSquares returns Σθ².
func (in Initiator) SumSquares() float64 {
	var s float64
	for _, t := range in.Theta {
		s += t * t
	}
	return s
}

// ExpectedEdges returns (Σθ)^k, the expected edge count at iteration k.
func (in Initiator) ExpectedEdges(k int) float64 {
	return math.Pow(in.Sum(), float64(k))
}

// NumVertices returns 2^k, the vertex count at iteration k.
func NumVertices(k int) int64 { return int64(1) << uint(k) }

// String renders the matrix.
func (in Initiator) String() string {
	return fmt.Sprintf("[%.4f %.4f; %.4f %.4f]", in.Theta[0], in.Theta[1], in.Theta[2], in.Theta[3])
}

// dropEdge performs one recursive descent through the initiator, returning
// the (u, v) cell the edge lands in.
func dropEdge(in *Initiator, k int, rng *stats.RNG) (int64, int64) {
	sum := in.Sum()
	var u, v int64
	for level := 0; level < k; level++ {
		r := rng.Float64() * sum
		u <<= 1
		v <<= 1
		switch {
		case r < in.Theta[0]:
			// quadrant (0,0)
		case r < in.Theta[0]+in.Theta[1]:
			v |= 1
		case r < in.Theta[0]+in.Theta[1]+in.Theta[2]:
			u |= 1
		default:
			u |= 1
			v |= 1
		}
	}
	return u, v
}

// Generate runs the sequential stochastic Kronecker generator: it places
// edges by recursive descent until `edges` distinct edges exist (collisions
// are re-dropped, the standard SKG semantics matching RDD.distinct in the
// parallel form). If edges <= 0, the expected count (Σθ)^k is used.
func Generate(in Initiator, k int, edges int64, seed uint64) (*graph.Graph, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if k < 1 || k > 62 {
		return nil, fmt.Errorf("kronecker: k = %d out of range [1,62]", k)
	}
	if edges <= 0 {
		edges = int64(math.Round(in.ExpectedEdges(k)))
		if edges < 1 {
			edges = 1
		}
	}
	n := NumVertices(k)
	if edges > n*n {
		return nil, fmt.Errorf("kronecker: %d edges cannot be distinct in a %d-vertex graph", edges, n)
	}
	rng := stats.NewRNG(seed, 0x5109)
	seen := make(map[[2]int64]struct{}, edges)
	g := graph.NewWithCapacity(n, edges)
	for int64(len(seen)) < edges {
		u, v := dropEdge(&in, k, rng)
		key := [2]int64{u, v}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		g.AddEdge(graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
	}
	return g, nil
}

// GenerateParallel is the Map-Reduce form of Generate on a cluster: an
// edge dataset is generated block-parallel (each block of the drop sequence
// has an independent RNG stream), deduplicated with
// Distinct, and topped up until the requested count of distinct edges is
// reached — mirroring the paper's Spark implementation, including the
// repeated "generate then RDD.distinct" rounds.
func GenerateParallel(c *cluster.Cluster, in Initiator, k int, edges int64, seed uint64) (*graph.Graph, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if k < 1 || k > 62 {
		return nil, fmt.Errorf("kronecker: k = %d out of range [1,62]", k)
	}
	if edges <= 0 {
		edges = int64(math.Round(in.ExpectedEdges(k)))
		if edges < 1 {
			edges = 1
		}
	}
	n := NumVertices(k)
	if edges > n*n {
		return nil, fmt.Errorf("kronecker: %d edges cannot be distinct in a %d-vertex graph", edges, n)
	}
	type pair = [2]int64
	var ds *cluster.Dataset[pair]
	round := uint64(0)
	defer c.Scope("kronecker")()
	for {
		// Cancellation boundary: a cancelled cluster generates empty
		// partitions, so without this check the top-up loop would spin
		// forever waiting for distinct edges that never arrive.
		if err := c.Err(); err != nil {
			return nil, err
		}
		var have int64
		if ds != nil {
			have = ds.Count()
		}
		missing := edges - have
		if missing <= 0 {
			break
		}
		endRound := c.Scope(fmt.Sprintf("round%d", round+1))
		// Overprovision slightly: collisions shrink the distinct yield.
		// The drop stage is remotable (DropTaskKind): on a cluster with a
		// TaskExecutor a task's descents may run in a worker process, which
		// replays the identical per-block RNG streams — the bytes are the
		// same wherever the balls drop.
		toDrop := missing + missing/8 + 1
		roundSeed := seed ^ (round+1)*0x9e37
		fresh := cluster.GenerateRemotable(c, toDrop, roundSeed, DropTaskKind,
			func(rng *stats.RNG, emit func(pair), count int64) {
				for i := int64(0); i < count; i++ {
					u, v := dropEdge(&in, k, rng)
					emit(pair{u, v})
				}
			},
			func(s, block uint64, count int64) []byte {
				return encodeDropTask(in, k, s, block, count)
			},
			decodePairs)
		if ds == nil {
			ds = fresh
		} else {
			ds = cluster.Union(ds, fresh)
		}
		if limit := c.Config().DefaultPartitions; ds.NumPartitions() > 4*limit {
			ds = cluster.Coalesce(ds, limit)
		}
		ds = cluster.Distinct(ds,
			func(p pair) pair { return p },
			func(p pair) uint64 {
				// SplitMix-style mix of both endpoints.
				z := uint64(p[0])*0x9e3779b97f4a7c15 ^ uint64(p[1])
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				return z ^ (z >> 27)
			})
		endRound()
		round++
	}
	// Distinct keeps first occurrences in drop order, so the truncation
	// keeps the same edges on every partitioning.
	all := cluster.Collect(ds)
	if int64(len(all)) > edges {
		all = all[:edges]
	}
	g := graph.NewWithCapacity(n, int64(len(all)))
	for _, p := range all {
		g.AddEdge(graph.Edge{Src: graph.VertexID(p[0]), Dst: graph.VertexID(p[1])})
	}
	return g, nil
}

// EdgeProbability returns the probability of edge (u,v) at iteration k
// under the initiator: the product over bit levels of θ[u_l, v_l], most
// significant level first. KronFit reads p from a prefix table instead;
// this is the from-scratch reference its tests hold the table to.
func EdgeProbability(in *Initiator, k int, u, v int64) float64 {
	p := 1.0
	for level := 0; level < k; level++ {
		shift := uint(k - 1 - level)
		ub := (u >> shift) & 1
		vb := (v >> shift) & 1
		p *= in.Theta[ub<<1|vb]
	}
	return p
}
