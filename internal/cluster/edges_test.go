package cluster

import (
	"strings"
	"sync/atomic"
	"testing"

	"csb/internal/graph"
)

// fillPairs writes xs as edges whose out-byte count is the element itself.
func fillPairs(part int, xs []uint32, cols *graph.EdgeBatch, at int) {
	for i, x := range xs {
		cols.SetEndpoints(at+i, x, x+1)
		cols.SetProps(at+i, graph.EdgeProps{OutBytes: int64(x)})
	}
}

func TestFillGraphCollectOrderAndMemoryCharge(t *testing.T) {
	c := MustNew(Config{Nodes: 2, CoresPerNode: 2, MaxParallel: 4})
	data := make([]uint32, 1000)
	for i := range data {
		data[i] = uint32(i)
	}
	g, err := FillGraph(Parallelize(c, data, 7), 1001, fillPairs)
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
	c := MustNew(Config{Nodes: 1, CoresPerNode: 4})
	data := make([]uint32, 400)
	for i := range data {
		data[i] = uint32(i)
	}
	var failed atomic.Bool
	g, err := FillGraph(Parallelize(c, data, 4), 401, func(part int, xs []uint32, cols *graph.EdgeBatch, at int) {
		if part == 2 && failed.CompareAndSwap(false, true) {
			// Scribble over half the range, then die: the retry must
			// overwrite every edge of it.
			for i := range xs[:len(xs)/2] {
				cols.SetEndpoints(at+i, 400, 400)
				cols.SetProps(at+i, graph.EdgeProps{InBytes: -1})
			}
			panic("torn fill")
		}
		fillPairs(part, xs, cols, at)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.TaskFailures != 1 || m.TaskRetries != 1 {
		t.Fatalf("failures=%d retries=%d, want 1 and 1", m.TaskFailures, m.TaskRetries)
	}
	for i := 0; i < 400; i++ {
		if e := g.Cols().Edge(i); e.Src != graph.VertexID(i) || e.Props != (graph.EdgeProps{OutBytes: int64(i)}) {
			t.Fatalf("edge %d = %+v after the retry", i, e)
		}
	}
}

func TestFillGraphValidatesEndpoints(t *testing.T) {
	c := Local(2)
	_, err := FillGraph(Parallelize(c, []uint32{1, 2, 3}, 2), 3, fillPairs)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want an out-of-range endpoint", err)
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
