// Package genmodels implements the classical random-graph models the paper
// surveys as background (Section II): Erdős-Rényi, Watts-Strogatz, Chung-Lu,
// the stochastic block model and R-MAT. They serve as the comparison
// baselines that motivate the paper's choice of scale-free generators: none
// of them reproduces a network trace's joint structure the way BA and
// Kronecker growth from a seed does, which the baseline-comparison
// experiment quantifies.
package genmodels

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"csb/internal/graph"
)

// ErdosRenyi generates the G(n, m) model: m distinct directed edges chosen
// uniformly among all n*(n-1) ordered pairs (self-loops excluded). Degree
// distributions concentrate around m/n — the "no highly connected vertices"
// property the paper contrasts with real networks.
func ErdosRenyi(n, m int64, seed uint64) (*graph.Graph, error) {
	if n < 2 {
		return nil, errors.New("genmodels: ER needs at least 2 vertices")
	}
	if m < 0 || m > n*(n-1) {
		return nil, fmt.Errorf("genmodels: ER cannot place %d distinct edges on %d vertices", m, n)
	}
	rng := rand.New(rand.NewPCG(seed, 0xe12))
	g := graph.NewWithCapacity(n, m)
	seen := make(map[[2]int64]struct{}, m)
	for int64(len(seen)) < m {
		u := rng.Int64N(n)
		v := rng.Int64N(n)
		if u == v {
			continue
		}
		k := [2]int64{u, v}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		g.AddEdge(graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
	}
	return g, nil
}

// WattsStrogatz generates the small-world model: a ring lattice where every
// vertex connects to its k nearest clockwise neighbors, with each edge's
// endpoint rewired to a uniform vertex with probability beta. beta = 0 is a
// pure lattice; beta = 1 approaches a random graph.
func WattsStrogatz(n int64, k int, beta float64, seed uint64) (*graph.Graph, error) {
	if n < 3 {
		return nil, errors.New("genmodels: WS needs at least 3 vertices")
	}
	if k < 1 || int64(k) >= n {
		return nil, fmt.Errorf("genmodels: WS neighbor count %d out of range", k)
	}
	if beta < 0 || beta > 1 {
		return nil, errors.New("genmodels: WS beta must be in [0,1]")
	}
	rng := rand.New(rand.NewPCG(seed, 0x35))
	g := graph.NewWithCapacity(n, n*int64(k))
	for u := int64(0); u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + int64(j)) % n
			if rng.Float64() < beta {
				// Rewire to a uniform non-self target.
				for {
					v = rng.Int64N(n)
					if v != u {
						break
					}
				}
			}
			g.AddEdge(graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
		}
	}
	return g, nil
}

// ChungLu generates a directed Chung-Lu graph from expected out- and
// in-degree sequences: sum(out) edges are placed by sampling sources
// proportionally to outDegree and destinations proportionally to inDegree
// (the O(|E|) edge-skipping formulation). The result is a multigraph whose
// expected degrees match the inputs — the model that "can generate networks
// from almost any real-world desired degree distribution".
func ChungLu(outDegree, inDegree []float64, seed uint64) (*graph.Graph, error) {
	if len(outDegree) == 0 || len(outDegree) != len(inDegree) {
		return nil, errors.New("genmodels: CL needs equal, non-empty degree sequences")
	}
	var sumOut, sumIn float64
	for i := range outDegree {
		if outDegree[i] < 0 || inDegree[i] < 0 {
			return nil, errors.New("genmodels: CL degrees must be non-negative")
		}
		sumOut += outDegree[i]
		sumIn += inDegree[i]
	}
	if sumOut == 0 || sumIn == 0 {
		return nil, errors.New("genmodels: CL degree sequences sum to zero")
	}
	srcAlias, err := newWeightedAlias(outDegree)
	if err != nil {
		return nil, err
	}
	dstAlias, err := newWeightedAlias(inDegree)
	if err != nil {
		return nil, err
	}
	m := int64(math.Round(sumOut))
	rng := rand.New(rand.NewPCG(seed, 0xc1))
	n := int64(len(outDegree))
	g := graph.NewWithCapacity(n, m)
	for i := int64(0); i < m; i++ {
		g.AddEdge(graph.Edge{
			Src: graph.VertexID(srcAlias.sample(rng)),
			Dst: graph.VertexID(dstAlias.sample(rng)),
		})
	}
	return g, nil
}

// SBM generates a stochastic block model: blockSizes give the community
// sizes and probs[a][b] the edge probability from block a to block b.
// Within each block pair, edges are placed by geometric skip sampling in
// O(edges), not O(n^2). Self-loops are excluded.
func SBM(blockSizes []int64, probs [][]float64, seed uint64) (*graph.Graph, error) {
	if len(blockSizes) == 0 || len(probs) != len(blockSizes) {
		return nil, errors.New("genmodels: SBM needs matching block sizes and probability matrix")
	}
	var n int64
	starts := make([]int64, len(blockSizes))
	for b, s := range blockSizes {
		if s < 1 {
			return nil, errors.New("genmodels: SBM block sizes must be positive")
		}
		if len(probs[b]) != len(blockSizes) {
			return nil, errors.New("genmodels: SBM probability matrix not square")
		}
		starts[b] = n
		n += s
	}
	rng := rand.New(rand.NewPCG(seed, 0x5b1))
	g := graph.New(n)
	for a := range blockSizes {
		for b := range blockSizes {
			p := probs[a][b]
			if p < 0 || p > 1 {
				return nil, fmt.Errorf("genmodels: SBM probability %g out of [0,1]", p)
			}
			if p == 0 {
				continue
			}
			cells := blockSizes[a] * blockSizes[b]
			// Geometric skip sampling over the cell grid.
			for idx := skip(rng, p); idx < cells; idx += 1 + skip(rng, p) {
				u := starts[a] + idx/blockSizes[b]
				v := starts[b] + idx%blockSizes[b]
				if u == v {
					continue
				}
				g.AddEdge(graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
			}
		}
	}
	return g, nil
}

// skip draws the number of cells skipped before the next success of a
// Bernoulli(p) process: floor(log(U)/log(1-p)).
func skip(rng *rand.Rand, p float64) int64 {
	if p >= 1 {
		return 0
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return int64(math.Log(u) / math.Log(1-p))
}

// RMAT generates a recursive-matrix graph (Chakrabarti et al.): 2^scale
// vertices and `edges` edge drops descending through quadrant probabilities
// (a, b, c, d), a+b+c+d = 1. Duplicates are kept, matching the classic
// multigraph formulation; callers wanting simple graphs use
// Graph.Simplify. R-MAT is the deterministic-free cousin of the stochastic
// Kronecker generator.
func RMAT(scale int, edges int64, a, b, c, d float64, seed uint64) (*graph.Graph, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("genmodels: RMAT scale %d out of [1,30]", scale)
	}
	if edges < 0 {
		return nil, errors.New("genmodels: RMAT needs non-negative edge count")
	}
	sum := a + b + c + d
	if a < 0 || b < 0 || c < 0 || d < 0 || math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("genmodels: RMAT probabilities must be non-negative and sum to 1, got %g", sum)
	}
	rng := rand.New(rand.NewPCG(seed, 0x12a7))
	n := int64(1) << uint(scale)
	g := graph.NewWithCapacity(n, edges)
	for i := int64(0); i < edges; i++ {
		var u, v int64
		for level := 0; level < scale; level++ {
			r := rng.Float64()
			u <<= 1
			v <<= 1
			switch {
			case r < a:
			case r < a+b:
				v |= 1
			case r < a+b+c:
				u |= 1
			default:
				u |= 1
				v |= 1
			}
		}
		g.AddEdge(graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
	}
	return g, nil
}

// BTER generates the block two-level Erdős-Rényi model (Seshadhri, Kolda &
// Pinar): vertices are grouped by degree into affinity blocks of size
// (degree+1); phase one runs dense ER inside each block (producing the
// community structure and clustering), phase two spends each vertex's
// excess degree in a Chung-Lu pass across blocks. The result matches the
// degree sequence like Chung-Lu while exhibiting far higher clustering —
// the property the paper's Section II credits BTER with.
//
// degrees is the desired per-vertex (undirected) degree sequence;
// blockDensity in (0,1] is the within-block ER probability. Each generated
// undirected edge is emitted as one randomly oriented arc.
func BTER(degrees []int64, blockDensity float64, seed uint64) (*graph.Graph, error) {
	if len(degrees) == 0 {
		return nil, errors.New("genmodels: BTER needs a degree sequence")
	}
	if blockDensity <= 0 || blockDensity > 1 {
		return nil, errors.New("genmodels: BTER block density must be in (0,1]")
	}
	for _, d := range degrees {
		if d < 0 {
			return nil, errors.New("genmodels: BTER degrees must be non-negative")
		}
	}
	n := int64(len(degrees))
	rng := rand.New(rand.NewPCG(seed, 0xb7e2))

	// Sort vertex indices by degree ascending; zero-degree vertices are
	// left out of both phases.
	order := make([]int64, 0, n)
	for i := int64(0); i < n; i++ {
		if degrees[i] > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if degrees[order[a]] != degrees[order[b]] {
			return degrees[order[a]] < degrees[order[b]]
		}
		return order[a] < order[b]
	})

	g := graph.New(n)
	excess := make([]float64, n)
	orient := func(u, v int64) graph.Edge {
		if rng.IntN(2) == 1 {
			u, v = v, u
		}
		return graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)}
	}

	// Phase 1: affinity blocks. A block starting at a vertex of degree d
	// takes d+1 members; within-block ER(blockDensity).
	for at := 0; at < len(order); {
		d := degrees[order[at]]
		size := int(d) + 1
		if at+size > len(order) {
			size = len(order) - at
		}
		block := order[at : at+size]
		for i := 0; i < len(block); i++ {
			for j := i + 1; j < len(block); j++ {
				if rng.Float64() < blockDensity {
					g.AddEdge(orient(block[i], block[j]))
				}
			}
		}
		within := blockDensity * float64(len(block)-1)
		for _, v := range block {
			if e := float64(degrees[v]) - within; e > 0 {
				excess[v] = e
			}
		}
		at += size
	}

	// Phase 2: Chung-Lu over the excess degrees (each undirected CL edge
	// consumes 2 endpoint slots, so place sum(excess)/2 edges).
	var sumExcess float64
	for _, e := range excess {
		sumExcess += e
	}
	if sumExcess > 1 {
		alias, err := newWeightedAlias(excess)
		if err != nil {
			return nil, err
		}
		m := int64(math.Round(sumExcess / 2))
		for i := int64(0); i < m; i++ {
			u := alias.sample(rng)
			v := alias.sample(rng)
			if u == v {
				continue
			}
			g.AddEdge(orient(u, v))
		}
	}
	return g, nil
}

// weightedAlias is a Vose alias table over float64 weights (vertex indices).
type weightedAlias struct {
	prob  []float64
	alias []int32
}

func newWeightedAlias(weights []float64) (*weightedAlias, error) {
	n := len(weights)
	if n == 0 {
		return nil, errors.New("genmodels: empty weights")
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return nil, errors.New("genmodels: weights sum to zero")
	}
	wa := &weightedAlias{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
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
		wa.prob[s] = scaled[s]
		wa.alias[s] = l
		scaled[l] += scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		wa.prob[i] = 1
		wa.alias[i] = i
	}
	for _, i := range small {
		wa.prob[i] = 1
		wa.alias[i] = i
	}
	return wa, nil
}

func (wa *weightedAlias) sample(rng *rand.Rand) int64 {
	i := rng.IntN(len(wa.prob))
	if rng.Float64() < wa.prob[i] {
		return int64(i)
	}
	return int64(wa.alias[i])
}
