package cluster

import "csb/internal/graph"

// This file is the columnar bridge between the graph's struct-of-arrays edge
// store (graph.EdgeBatch) and the row-structured Dataset engine. Shuffle
// operators move individual elements and stay generic; the pipeline endpoints
// — loading a graph's edges into a dataset and filling a graph's columns from
// a dataset — stream batch columns instead of materializing one monolithic
// []Edge on each side.

// ParallelizeEdges splits the edges of a columnar batch into balanced
// partitions, materializing rows once per partition. The partition boundaries
// are exactly Parallelize's (base = len/p with the remainder spread over the
// first len%p partitions), so downstream stages see the same input that
// Parallelize over a materialized []Edge would give them — without the
// intermediate full-graph []Edge copy.
func ParallelizeEdges(c *Cluster, b *graph.EdgeBatch, partitions int) *Dataset[graph.Edge] {
	p := c.defaultPartitions(partitions)
	n := b.Len()
	if p > n {
		p = n
	}
	if n == 0 {
		return newDataset(c, make([][]graph.Edge, 0))
	}
	parts := make([][]graph.Edge, p)
	base, rem := n/p, n%p
	lo := 0
	for i := range parts {
		sz := base
		if i < rem {
			sz++
		}
		part := make([]graph.Edge, sz)
		for j := range part {
			part[j] = b.Edge(lo + j)
		}
		parts[i] = part
		lo += sz
	}
	return newDataset(c, parts)
}

// FillGraph is the generators' last stage: it builds the output graph of
// numVertices vertices and in.Count() edges without an intermediate row
// dataset. One mapPartitions task per partition calls fill(part, xs, cols,
// at), which must write edges at .. at+len(xs) of cols (SetEndpoints,
// SetProps) and nothing else; the ranges are the partitions' prefix sums, so
// edge order is Collect order. The columns are charged to the Figure 11
// memory model like any dataset, and the endpoints are validated once.
func FillGraph[T any](in *Dataset[T], numVertices int64, fill func(part int, xs []T, cols *graph.EdgeBatch, at int)) (*graph.Graph, error) {
	offsets, total := in.Offsets(), in.Count()
	g := graph.NewFilled(numVertices, total)
	colBytes := total * graph.EdgeColumnBytes
	in.c.runStage(stageSpec{op: "mapPartitions", weights: partWeights(in.parts),
		bytesIn: bytesOf(in.parts), bytesOut: func() int64 { return colBytes }}, len(in.parts), func(i int) {
		fill(i, in.parts[i], g.Cols(), int(offsets[i]))
	})
	in.c.chargeMemory(colBytes)
	if err := in.c.Err(); err != nil {
		return nil, err
	}
	return g, g.Validate()
}
