package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"csb/internal/cluster"
	"csb/internal/graph"
)

// csbgTestGraph returns a graph of n vertices and m edges with every record
// field drawn at random, and an address table when addrs is set.
func csbgTestGraph(n int64, m int, addrs bool) *graph.Graph {
	rng := rand.New(rand.NewPCG(uint64(m), 9))
	g := graph.NewWithCapacity(n, int64(m))
	for i := 0; i < m; i++ {
		g.AddEdge(graph.Edge{
			Src: graph.VertexID(rng.Int64N(n)), Dst: graph.VertexID(rng.Int64N(n)),
			Props: graph.EdgeProps{
				Protocol: graph.Protocol(rng.Uint32()), State: graph.TCPState(rng.Uint32()),
				SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
				Duration: int64(rng.Uint64()), OutBytes: int64(rng.Uint64()), InBytes: int64(rng.Uint64()),
				OutPkts: int64(rng.Uint64()), InPkts: int64(rng.Uint64()),
			},
		})
	}
	if addrs {
		for v := int64(0); v < n; v++ {
			g.SetAddr(graph.VertexID(v), rng.Uint32())
		}
	}
	return g
}

// remoteCounter is a TaskExecutor that counts the tasks offered to it and
// declines them all, so they run locally.
type remoteCounter struct{ offered atomic.Int64 }

func (r *remoteCounter) ExecRemote(context.Context, cluster.StageInfo, cluster.AttemptInfo, string, func() []byte) ([]byte, error) {
	r.offered.Add(1)
	return nil, cluster.ErrNoRemote
}

// TestCSBGArtifactMatchesWrite holds the in-place csbg encode to
// Graph.Write, the streaming writer csbgen and csbseed files come from:
// serially without a cluster, and as a stage on every shape, at every
// parallelism, through injected faults with retries, and on a cluster with
// a TaskExecutor, which must be offered none of its tasks. The graphs cover
// 0 and 1 edges, an address table, and edge counts no partition count
// divides.
func TestCSBGArtifactMatchesWrite(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"0-edges", csbgTestGraph(3, 0, false)},
		{"1-edge", csbgTestGraph(3, 1, false)},
		{"1031-edges", csbgTestGraph(200, 1031, false)},
		{"addrs", csbgTestGraph(97, 4099, true)},
	}
	chaos := cluster.NewFaultPlan(77, 0.3)
	exec := &remoteCounter{}
	configs := []struct {
		name string
		cfg  *cluster.Config // nil encodes without a cluster
	}{
		{"nil", nil},
		{"1x1", &cluster.Config{}},
		{"1x2", &cluster.Config{Nodes: 1, CoresPerNode: 2}},
		{"2x4", &cluster.Config{Nodes: 2, CoresPerNode: 4}},
		{"2x4-par1", &cluster.Config{Nodes: 2, CoresPerNode: 4, MaxParallel: 1}},
		{"2x4-par16", &cluster.Config{Nodes: 2, CoresPerNode: 4, MaxParallel: 16}},
		{"2x4-chaos", &cluster.Config{Nodes: 2, CoresPerNode: 4, MaxParallel: 16,
			Faults: chaos, MaxTaskRetries: 8}},
		{"1x2-executor", &cluster.Config{Nodes: 1, CoresPerNode: 2, Executor: exec}},
	}
	var failedAttempts int
	for _, tg := range graphs {
		var want bytes.Buffer
		if err := tg.g.Write(&want); err != nil {
			t.Fatal(err)
		}
		for _, cc := range configs {
			t.Run(fmt.Sprintf("%s/%s", tg.name, cc.name), func(t *testing.T) {
				var c *cluster.Cluster
				if cc.cfg != nil {
					c = cluster.MustNew(*cc.cfg)
				}
				got, err := encodeArtifactOn(tg.g, FormatCSBG, c)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("in-place csbg encode (%d bytes) differs from Graph.Write (%d bytes)", len(got), want.Len())
				}
				if c == nil {
					return
				}
				m := c.Metrics()
				if n := tg.g.NumEdges(); n > 0 && m.Stages != 1 {
					t.Errorf("encode of %d edges ran %d stages, want 1", n, m.Stages)
				}
				if m.RemoteTasks != 0 {
					t.Errorf("%d encode tasks ran remotely", m.RemoteTasks)
				}
				failedAttempts += int(m.TaskFailures)
			})
		}
	}
	if n := exec.offered.Load(); n != 0 {
		t.Errorf("the executor was offered %d encode tasks; the stage must stay local", n)
	}
	if failedAttempts == 0 {
		t.Error("the fault plan failed no encode attempt; the retry path went unexercised")
	}
}
