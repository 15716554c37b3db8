package cluster

import "csb/internal/graph"

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
