package cluster

import (
	"csb/internal/graph"
	"csb/internal/stats"
)

// FillGraph is the generators' last stage: it builds the output graph of
// numVertices vertices and in.Count() edges without an intermediate row
// dataset. The graph's columns are cols resized (graph.NewFilled), so the
// first drawn rows, which a DrawAhead pass wrote, keep their values; a zero
// cols and drawn 0 start from nothing. Its tasks are contiguous runs of whole
// blocks, as MapBlocks' are, split by work (fillTasks); fill(r, cols) is
// called for every Run r, with streams derived from seed, and must write
// edges r.At .. r.At+len(r.Xs) of cols (SetEndpoints, SetProps) and nothing
// else, so edge order is Collect order. The columns are charged to the
// Figure 11 memory model like any dataset, and the endpoints are validated
// once.
func FillGraph[T any](in *Dataset[T], numVertices int64, seed uint64, cols graph.EdgeBatch, drawn int64, fill func(r Run[T], cols *graph.EdgeBatch)) (*graph.Graph, error) {
	total := in.Count()
	lo, w, work := fillTasks(total, drawn, in.c.cfg.DefaultPartitions)
	offsets, g := in.Offsets(), graph.NewFilled(numVertices, total, cols)
	colBytes := total * graph.EdgeColumnBytes
	in.c.runStage(stageSpec{op: "mapBlocks", weights: work,
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

// drawCost is what a row the fill draws weighs against one DrawAhead drew,
// which costs the fill only its endpoints: on a 100-host synthetic seed a
// row's property draws take 60–75 times as long as writing its endpoints.
const drawCost = 64

// fillTasks is blockTasks for a FillGraph whose first drawn rows are drawn
// already: it splits n rows into at most p tasks of whole blocks, as even in
// work as they divide, a drawn row weighing 1 and any other drawCost. Task t
// covers the w[t] rows from lo[t] and weighs work[t]. With no row drawn, or
// every row, the work is even in rows and the tasks are blockTasks'.
func fillTasks(n, drawn int64, p int) (lo, w, work []int64) {
	drawn = min(drawn, n)
	if drawn == 0 || drawn == n {
		lo, w = blockTasks(n, p)
		return lo, w, w
	}
	// workTo is the work of rows [0, row); rowAt inverts it, up to a row.
	workTo := func(row int64) int64 { return min(row, drawn) + drawCost*max(row-drawn, 0) }
	rowAt := func(c int64) int64 { return min(c, drawn) + max(c-drawn, 0)/drawCost }
	blocks := (n + blockSize - 1) / blockSize
	t := min(int64(max(p, 1)), blocks)
	var a int64
	for i := int64(1); i <= t; i++ {
		// Task i-1 ends at the block boundary nearest the row where i/t of
		// the work is done.
		b := n
		if i < t {
			b = min((rowAt(i*workTo(n)/t)+blockSize/2)/blockSize*blockSize, n)
		}
		if b > a {
			lo, w, work = append(lo, a), append(w, b-a), append(work, workTo(b)-workTo(a))
			a = b
		}
	}
	return lo, w, work
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
