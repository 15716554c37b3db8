package graph

import "sort"

// CSR is a compressed sparse row view of a graph's adjacency, used by the
// iterative algorithms (PageRank, BFS) that need fast neighbor scans. It is
// immutable once built.
type CSR struct {
	// Offsets has length NumVertices+1; the neighbors of vertex v are
	// Targets[Offsets[v]:Offsets[v+1]].
	Offsets []int64
	// Targets lists neighbor vertex IDs, grouped by source vertex.
	Targets []VertexID
}

// NumVertices returns the number of vertices covered by the CSR.
func (c *CSR) NumVertices() int64 { return int64(len(c.Offsets)) - 1 }

// Neighbors returns the adjacency list of v. The returned slice aliases the
// CSR storage and must not be modified.
func (c *CSR) Neighbors(v VertexID) []VertexID {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// Degree returns the number of stored arcs out of v.
func (c *CSR) Degree(v VertexID) int64 {
	return c.Offsets[v+1] - c.Offsets[v]
}

// BuildCSR builds the out-adjacency CSR of g via counting sort in O(|V|+|E|).
func BuildCSR(g *Graph) *CSR {
	return buildCSR(g, false)
}

// BuildReverseCSR builds the in-adjacency (transposed) CSR of g.
func BuildReverseCSR(g *Graph) *CSR {
	return buildCSR(g, true)
}

func buildCSR(g *Graph, reverse bool) *CSR {
	n := g.numVertices
	offsets := make([]int64, n+1)
	// Both passes read only the two 4-byte endpoint columns — the property
	// columns never enter cache during CSR construction.
	srcs, dsts := g.cols.src, g.cols.dst
	if reverse {
		srcs, dsts = dsts, srcs
	}
	for _, src := range srcs {
		offsets[src+1]++
	}
	for v := int64(1); v <= n; v++ {
		offsets[v] += offsets[v-1]
	}
	targets := make([]VertexID, len(srcs))
	cursor := make([]int64, n)
	for i, src := range srcs {
		targets[offsets[src]+cursor[src]] = VertexID(dsts[i])
		cursor[src]++
	}
	return &CSR{Offsets: offsets, Targets: targets}
}

// SortNeighbors sorts each adjacency list ascending, enabling binary-search
// membership tests.
func (c *CSR) SortNeighbors() {
	n := c.NumVertices()
	for v := int64(0); v < n; v++ {
		nb := c.Targets[c.Offsets[v]:c.Offsets[v+1]]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
}

// HasArc reports whether an arc v->w is stored. Requires SortNeighbors to
// have been called.
func (c *CSR) HasArc(v, w VertexID) bool {
	nb := c.Neighbors(v)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= w })
	return i < len(nb) && nb[i] == w
}
