package cluster

import (
	"csb/internal/graph"
	"csb/internal/stats"
)

// FillGraph is the generators' last stage: it builds the output graph of
// numVertices vertices and in.Count() edges without an intermediate row
// dataset. The graph's columns are cols resized (graph.NewFilled), so rows a
// DrawAhead pass wrote keep their values; a zero cols starts from nothing.
// Its tasks are contiguous runs of whole blocks, as MapBlocks' are;
// fill(r, cols) is called for every Run r, with streams derived from seed,
// and must write edges r.At .. r.At+len(r.Xs) of cols (SetEndpoints,
// SetProps) and nothing else, so edge order is Collect order. The columns
// are charged to the Figure 11 memory model like any dataset, and the
// endpoints are validated once.
func FillGraph[T any](in *Dataset[T], numVertices int64, seed uint64, cols graph.EdgeBatch, fill func(r Run[T], cols *graph.EdgeBatch)) (*graph.Graph, error) {
	total := in.Count()
	lo, w := blockTasks(total, in.c.cfg.DefaultPartitions)
	offsets, g := in.Offsets(), graph.NewFilled(numVertices, total, cols)
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

// DrawAhead starts a FillGraph stage's draws before its input exists, for a
// fill whose draws do not read the elements. It calls draw(rng, at) for every
// row at of blocks 0, 1, 2, … of seed's streams, in order, until the blocks
// cover [0, n), stop reports true or Err is set; both are checked between
// blocks. It returns the rows drawn, whole blocks: a FillGraph over the same
// seed, given the columns draw wrote, must draw only from the first block
// DrawAhead did not reach, and then every stream is consumed as if it had
// drawn them all. The pass runs on the calling goroutine as one serial
// section, op "drawAhead".
func DrawAhead(c *Cluster, seed uint64, n int64, stop func() bool, draw func(rng *stats.RNG, at int64)) int64 {
	var rows int64
	c.runSerial("drawAhead", func() {
		for ; rows < n && !stop() && c.Err() == nil; rows += blockSize {
			rng := DeriveRNG(seed, uint64(rows/blockSize))
			for at := rows; at < rows+blockSize; at++ {
				draw(rng, at)
			}
		}
	})
	return rows
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
