package cluster

import "csb/internal/graph"

// FillGraph is the generators' last stage: it builds the output graph of
// numVertices vertices and in.Count() edges without an intermediate row
// dataset. Its tasks are contiguous runs of whole blocks, as MapBlocks'
// are; fill(r, cols) is called for every Run r, with streams derived from
// seed, and must write edges r.At .. r.At+len(r.Xs) of cols (SetEndpoints,
// SetProps) and nothing else, so edge order is Collect order. The columns
// are charged to the Figure 11 memory model like any dataset, and the
// endpoints are validated once.
func FillGraph[T any](in *Dataset[T], numVertices int64, seed uint64, fill func(r Run[T], cols *graph.EdgeBatch)) (*graph.Graph, error) {
	total := in.Count()
	lo, w := blockTasks(total, in.c.cfg.DefaultPartitions)
	offsets, g := in.Offsets(), graph.NewFilled(numVertices, total)
	colBytes := total * graph.EdgeColumnBytes
	in.c.runStage(stageSpec{op: "mapBlocks", weights: w,
		bytesIn: bytesOf(in.parts), bytesOut: func() int64 { return colBytes }}, len(w), func(t int) {
		for r := range in.runs(offsets, lo[t], lo[t]+w[t], seed) {
			fill(r, g.Cols())
		}
	})
	in.c.chargeMemory(colBytes)
	if err := in.c.Err(); err != nil {
		return nil, err
	}
	return g, g.Validate()
}

// FillRanges is FillGraph's sibling for output other than a graph: one
// local mapPartitions stage over the cluster's default partitioning of
// [0, n) (Parallelize's), whose task for [lo, hi) calls fill(lo, hi). fill
// must write only output that [lo, hi) alone owns, into storage the caller
// sized in advance, so the result does not depend on the partitioning;
// bytesOut is that output's size, for the stage's span. The stage never
// goes to a TaskExecutor: its output is as large as its input, so shipping
// the work would win nothing.
func FillRanges(c *Cluster, n int, bytesOut int64, fill func(lo, hi int)) error {
	in := Parallelize(c, make([]struct{}, n), 0)
	offsets := in.Offsets()
	c.runStage(stageSpec{op: "mapPartitions", weights: partWeights(in.parts),
		bytesOut: func() int64 { return bytesOut }}, len(in.parts), func(i int) {
		lo := int(offsets[i])
		fill(lo, lo+len(in.parts[i]))
	})
	return c.Err()
}
