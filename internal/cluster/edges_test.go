package cluster

import (
	"bytes"
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
	g, err := FillGraph(Parallelize(c, data, 7), 1001, 0, graph.EdgeBatch{}, fillPairs)
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
	g, err := FillGraph(Parallelize(c, data, 4), n+1, 0, graph.EdgeBatch{}, func(r Run[uint32], cols *graph.EdgeBatch) {
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
	_, err := FillGraph(Parallelize(c, []uint32{1, 2, 3}, 2), 3, 0, graph.EdgeBatch{}, fillPairs)
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
	want, err := FillGraph(Parallelize(MustNew(Config{}), data, 3), n, 9, graph.EdgeBatch{}, fillFrom(0))
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
		g, err := FillGraph(Parallelize(c, data, 5), n, 9, cols, fillFrom(rows))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.AppendEdgeList(nil), want.AppendEdgeList(nil)) {
			t.Fatalf("ahead %d, stop at %d: the graph differs from one FillGraph's", tc.ahead, tc.stopAt)
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
