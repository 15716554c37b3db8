// Package graphalgo implements the structural statistics the evaluation
// grid scores beyond degree and PageRank: clustering coefficients,
// triangles and degree assortativity (internal/eval's clustering_gap,
// transitivity, triangles and assortativity_gap columns).
package graphalgo

import (
	"sort"

	"csb/internal/graph"
)

// undirectedAdjacency builds deduplicated undirected neighbor lists
// (self-loops dropped), the view clustering coefficients are defined on.
func undirectedAdjacency(g *graph.Graph) [][]graph.VertexID {
	n := g.NumVertices()
	sets := make([]map[graph.VertexID]struct{}, n)
	at := func(v graph.VertexID) map[graph.VertexID]struct{} {
		if sets[v] == nil {
			sets[v] = make(map[graph.VertexID]struct{})
		}
		return sets[v]
	}
	cols := g.Cols()
	for i, m := 0, cols.Len(); i < m; i++ {
		src, dst := cols.SrcID(i), cols.DstID(i)
		if src == dst {
			continue
		}
		at(src)[dst] = struct{}{}
		at(dst)[src] = struct{}{}
	}
	adj := make([][]graph.VertexID, n)
	for v := int64(0); v < n; v++ {
		if sets[v] == nil {
			continue
		}
		nb := make([]graph.VertexID, 0, len(sets[v]))
		for w := range sets[v] {
			nb = append(nb, w)
		}
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		adj[v] = nb
	}
	return adj
}

// ClusteringCoefficients computes the average local clustering coefficient
// (over vertices with undirected degree >= 2) and the global transitivity
// (3 x triangles / open triads) of the graph's undirected simple view —
// the metric the BTER model targets alongside the degree distribution.
func ClusteringCoefficients(g *graph.Graph) (avgLocal, global float64) {
	adj := undirectedAdjacency(g)
	has := func(v, w graph.VertexID) bool {
		nb := adj[v]
		i := sort.Search(len(nb), func(i int) bool { return nb[i] >= w })
		return i < len(nb) && nb[i] == w
	}
	var localSum float64
	var localCount int64
	var closed, triads float64
	for v := range adj {
		d := len(adj[v])
		if d < 2 {
			continue
		}
		links := 0
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if has(adj[v][i], adj[v][j]) {
					links++
				}
			}
		}
		possible := d * (d - 1) / 2
		localSum += float64(links) / float64(possible)
		localCount++
		closed += float64(links) // each triangle counted once per corner
		triads += float64(possible)
	}
	if localCount > 0 {
		avgLocal = localSum / float64(localCount)
	}
	if triads > 0 {
		global = closed / triads
	}
	return avgLocal, global
}
