package graph

// CSR is a compressed sparse row view of a graph's adjacency, used by the
// iterative algorithms (PageRank) that need fast neighbor scans. It is
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

// BuildReverseCSR builds the in-adjacency (transposed) CSR of g via counting
// sort in O(|V|+|E|): Neighbors(v) lists the sources of v's in-arcs.
func BuildReverseCSR(g *Graph) *CSR {
	n := g.numVertices
	offsets := make([]int64, n+1)
	// Both passes read only the two 4-byte endpoint columns — the property
	// columns never enter cache during CSR construction.
	srcs, dsts := g.cols.dst, g.cols.src
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
