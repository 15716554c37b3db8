package cluster

import (
	"bytes"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"csb/internal/graph"
	"csb/internal/stats"
)

// fillPairs writes r's elements as edges whose out-byte count is the
// element itself.
func fillPairs(r Run[uint32], cols *graph.EdgeBatch) {
	for i, x := range r.Xs {
		cols.SetEndpoints(int(r.At)+i, x, x+1)
		cols.SetProps(int(r.At)+i, graph.EdgeProps{OutBytes: int64(x)})
	}
}

func TestFillGraphCollectOrderAndMemoryCharge(t *testing.T) {
	c := MustNew(Config{Nodes: 2, CoresPerNode: 2, MaxParallel: 4})
	data := make([]uint32, 1000)
	for i := range data {
		data[i] = uint32(i)
	}
	g, err := FillGraph(Parallelize(c, data, 7), 1001, 0, graph.EdgeBatch{}, 0, fillPairs)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1000 || g.NumVertices() != 1001 {
		t.Fatalf("graph is %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	for i := 0; i < 1000; i++ {
		want := graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), Props: graph.EdgeProps{OutBytes: int64(i)}}
		if got := g.Cols().Edge(i); got != want {
			t.Fatalf("edge %d = %+v, want %+v", i, got, want)
		}
	}
	// The output columns, not the 4-byte input elements, set the peak.
	want := int64(1000*graph.EdgeColumnBytes/2 + DefaultPlatformOverheadBytes)
	if got := c.Metrics().PeakBytesPerNode; got != want {
		t.Fatalf("PeakBytesPerNode = %d, want %d", got, want)
	}
}

func TestFillGraphRetryOverwritesPartialRange(t *testing.T) {
	const n = 4 * blockSize
	c := MustNew(Config{Nodes: 1, CoresPerNode: 4})
	data := make([]uint32, n)
	for i := range data {
		data[i] = uint32(i)
	}
	var failed atomic.Bool
	g, err := FillGraph(Parallelize(c, data, 4), n+1, 0, graph.EdgeBatch{}, 0, func(r Run[uint32], cols *graph.EdgeBatch) {
		if r.At == 2*blockSize && failed.CompareAndSwap(false, true) {
			// Scribble over half the range, then die: the retry must
			// overwrite every edge of it.
			for i := range r.Xs[:len(r.Xs)/2] {
				cols.SetEndpoints(int(r.At)+i, n, n)
				cols.SetProps(int(r.At)+i, graph.EdgeProps{InBytes: -1})
			}
			panic("torn fill")
		}
		fillPairs(r, cols)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.TaskFailures != 1 || m.TaskRetries != 1 {
		t.Fatalf("failures=%d retries=%d, want 1 and 1", m.TaskFailures, m.TaskRetries)
	}
	for i := 0; i < n; i++ {
		if e := g.Cols().Edge(i); e.Src != graph.VertexID(i) || e.Props != (graph.EdgeProps{OutBytes: int64(i)}) {
			t.Fatalf("edge %d = %+v after the retry", i, e)
		}
	}
}

func TestFillGraphValidatesEndpoints(t *testing.T) {
	c := Local(2)
	_, err := FillGraph(Parallelize(c, []uint32{1, 2, 3}, 2), 3, 0, graph.EdgeBatch{}, 0, fillPairs)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want an out-of-range endpoint", err)
	}
}

// TestDrawAheadThenFillGraphIsFillGraph: rows DrawAhead drew keep their
// values through FillGraph, and a fill that draws only past them gives the
// graph a single FillGraph gives, wherever the pass stopped: after no block,
// mid-way, past the input, or short of it so the columns grow. The pass is
// one serial span.
func TestDrawAheadThenFillGraphIsFillGraph(t *testing.T) {
	const n = 10*blockSize + 37
	data := make([]uint32, n)
	for i := range data {
		data[i] = uint32(i)
	}
	fillFrom := func(drawn int64) func(r Run[uint32], cols *graph.EdgeBatch) {
		return func(r Run[uint32], cols *graph.EdgeBatch) {
			for i, x := range r.Xs {
				cols.SetEndpoints(int(r.At)+i, x, x)
				if r.At >= drawn {
					cols.SetProps(int(r.At)+i, graph.EdgeProps{OutBytes: int64(r.RNG.Uint64() >> 1)})
				}
			}
		}
	}
	want, err := FillGraph(Parallelize(MustNew(Config{}), data, 3), n, 9, graph.EdgeBatch{}, 0, fillFrom(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ahead, stopAt, rows int64
	}{
		{n, 0, 0},
		{n, 4, 4 * blockSize},
		{2 * n, -1, 2*n + blockSize - 2*n%blockSize},
		{n / 2, -1, 6 * blockSize},
	} {
		tracer := NewTracer()
		c := MustNew(Config{Nodes: 2, CoresPerNode: 2, Tracer: tracer})
		var cols graph.EdgeBatch
		calls := int64(0)
		rows := DrawAhead(c, 9, tc.ahead, func() bool { calls++; return calls == tc.stopAt+1 }, func(rng *stats.RNG, at int64) {
			if int(at) == cols.Len() {
				cols.Resize(cols.Len() + blockSize)
			}
			cols.SetProps(int(at), graph.EdgeProps{OutBytes: int64(rng.Uint64() >> 1)})
		})
		if rows != tc.rows {
			t.Fatalf("ahead %d, stop at %d: drew %d rows, want %d", tc.ahead, tc.stopAt, rows, tc.rows)
		}
		if spans := tracer.Spans(); len(spans) != 1 || spans[0].Op != "drawAhead" || !spans[0].Serial {
			t.Fatalf("DrawAhead recorded %+v, want one serial drawAhead span", spans)
		}
		g, err := FillGraph(Parallelize(c, data, 5), n, 9, cols, rows, fillFrom(rows))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.AppendEdgeList(nil), want.AppendEdgeList(nil)) {
			t.Fatalf("ahead %d, stop at %d: the graph differs from one FillGraph's", tc.ahead, tc.stopAt)
		}
	}
}

// TestFillTasksSplitTheUndrawnTail: after a DrawAhead over ¾ of the rows,
// FillGraph's tasks still cover the rows once, in at most p contiguous runs
// of whole blocks, and no task draws more than an even share of the undrawn
// rows plus one block, beyond the rows that pay for its share of the drawn
// rows' endpoints (drawn/(drawCost·t), under a block at the smallest size).
// An even split in rows left the whole tail to the last task. With nothing
// drawn, or everything, the tasks are blockTasks'.
func TestFillTasksSplitTheUndrawnTail(t *testing.T) {
	for _, tc := range []struct {
		n int64
		p int
	}{{64*blockSize + 37, 4}, {10_000, 2}, {500_000, 4}, {1_000_003, 8}} {
		for _, drawn := range []int64{0, tc.n, tc.n + blockSize} {
			lo, w, work := fillTasks(tc.n, drawn, tc.p)
			wantLo, wantW := blockTasks(tc.n, tc.p)
			if !slices.Equal(lo, wantLo) || !slices.Equal(w, wantW) || !slices.Equal(work, wantW) {
				t.Fatalf("n %d, drawn %d: tasks %v %v %v, want blockTasks' %v %v", tc.n, drawn, lo, w, work, wantLo, wantW)
			}
		}
		drawn := tc.n * 3 / 4 / blockSize * blockSize
		lo, w, work := fillTasks(tc.n, drawn, tc.p)
		tasks := int64(len(lo))
		if tasks == 0 || tasks > int64(tc.p) || len(w) != len(lo) || len(work) != len(lo) {
			t.Fatalf("n %d: %d tasks for p %d", tc.n, tasks, tc.p)
		}
		undrawn := tc.n - drawn
		bound := undrawn/tasks + drawn/(drawCost*tasks) + blockSize
		var at int64
		for i := range lo {
			if lo[i] != at || lo[i]%blockSize != 0 || w[i] <= 0 {
				t.Fatalf("n %d: task %d covers [%d, %d) after %d", tc.n, i, lo[i], lo[i]+w[i], at)
			}
			at += w[i]
			draws := at - max(lo[i], drawn)
			if draws > bound {
				t.Fatalf("n %d, drawn %d: task %d draws %d rows, bound %d", tc.n, drawn, i, draws, bound)
			}
			if want := min(w[i], max(drawn-lo[i], 0)) + drawCost*max(draws, 0); work[i] != want {
				t.Fatalf("n %d: task %d weighs %d, want %d", tc.n, i, work[i], want)
			}
		}
		if at != tc.n {
			t.Fatalf("n %d: tasks cover %d rows", tc.n, at)
		}
	}
}

// TestFillRangesCoversEachIndexOnce checks that FillRanges hands out the
// default partitioning of [0, n): every index exactly once, one local task
// per partition (never more partitions than indices), and none for n = 0.
func TestFillRangesCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1031} {
		c := MustNew(Config{Nodes: 2, CoresPerNode: 2, MaxParallel: 4})
		hits := make([]int32, n)
		var tasks atomic.Int32
		if err := FillRanges(c, n, int64(n), func(lo, hi int) {
			tasks.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d filled %d times", n, i, h)
			}
		}
		if want := min(n, c.Config().DefaultPartitions); int(tasks.Load()) != want {
			t.Errorf("n=%d: %d tasks, want %d", n, tasks.Load(), want)
		}
	}
}
