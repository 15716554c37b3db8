package graphalgo

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"

	"csb/internal/graph"
)

func TestWeakComponentsBasic(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(graph.Edge{Src: 0, Dst: 1})
	g.AddEdge(graph.Edge{Src: 1, Dst: 2})
	g.AddEdge(graph.Edge{Src: 3, Dst: 4})
	// vertex 5 isolated
	c := WeakComponents(g)
	if c.Count != 3 {
		t.Fatalf("components = %d, want 3", c.Count)
	}
	if c.Label[0] != c.Label[1] || c.Label[1] != c.Label[2] {
		t.Error("0-1-2 not one component")
	}
	if c.Label[3] != c.Label[4] {
		t.Error("3-4 not one component")
	}
	if c.Label[5] == c.Label[0] || c.Label[5] == c.Label[3] {
		t.Error("isolated vertex merged")
	}
	sizes := c.SizeDistribution()
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("sizes = %v", sizes)
	}
	if gf := c.GiantFraction(); math.Abs(gf-0.5) > 1e-12 {
		t.Fatalf("giant fraction = %g, want 0.5", gf)
	}
}

func TestWeakComponentsDirectionIgnored(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(graph.Edge{Src: 1, Dst: 0})
	if c := WeakComponents(g); c.Count != 1 {
		t.Fatalf("components = %d, want 1 (weak connectivity)", c.Count)
	}
}

func TestWeakComponentsEmpty(t *testing.T) {
	c := WeakComponents(graph.New(0))
	if c.Count != 0 || c.GiantFraction() != 0 {
		t.Fatalf("empty: %+v", c)
	}
	// All-isolated graph: one component per vertex.
	c = WeakComponents(graph.New(4))
	if c.Count != 4 {
		t.Fatalf("isolated components = %d", c.Count)
	}
}

// Property: labels are consistent (two vertices connected by an edge share a
// label) and component count matches distinct labels.
func TestWeakComponentsInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int64(nRaw%50) + 1
		m := int(mRaw % 300)
		rng := rand.New(rand.NewPCG(seed, 0xcc))
		g := graph.New(n)
		for i := 0; i < m; i++ {
			g.AddEdge(graph.Edge{Src: graph.VertexID(rng.Int64N(n)), Dst: graph.VertexID(rng.Int64N(n))})
		}
		c := WeakComponents(g)
		for i := range g.Cols().Len() {
			e := g.Cols().Edge(i)
			if c.Label[e.Src] != c.Label[e.Dst] {
				return false
			}
		}
		distinct := map[graph.VertexID]bool{}
		for _, l := range c.Label {
			distinct[l] = true
		}
		return int64(len(distinct)) == c.Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBetweennessPathGraph(t *testing.T) {
	// Path 0->1->2->3->4: interior vertices accumulate betweenness;
	// exact values for a directed path: BC(v) = (#pairs through v).
	g := graph.New(5)
	for i := int64(0); i < 4; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
	}
	bc := ApproxBetweenness(g, BetweennessOptions{})
	// Vertex 1: paths 0->2,0->3,0->4 => 3. Vertex 2: 0->3,0->4,1->3,1->4 => 4.
	want := []float64{0, 3, 4, 3, 0}
	for v, w := range want {
		if math.Abs(bc[v]-w) > 1e-9 {
			t.Errorf("BC[%d] = %g, want %g", v, bc[v], w)
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// In-star + out-star through the hub: hub carries all pairs.
	g := graph.New(5)
	for i := int64(1); i <= 2; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: 0})
	}
	for i := int64(3); i <= 4; i++ {
		g.AddEdge(graph.Edge{Src: 0, Dst: graph.VertexID(i)})
	}
	bc := ApproxBetweenness(g, BetweennessOptions{})
	if bc[0] != 4 { // pairs (1,3),(1,4),(2,3),(2,4)
		t.Fatalf("hub BC = %g, want 4", bc[0])
	}
	for v := 1; v < 5; v++ {
		if bc[v] != 0 {
			t.Errorf("leaf %d BC = %g, want 0", v, bc[v])
		}
	}
}

func TestBetweennessSampledApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	g := graph.New(60)
	for i := 0; i < 400; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(rng.Int64N(60)), Dst: graph.VertexID(rng.Int64N(60))})
	}
	exact := ApproxBetweenness(g, BetweennessOptions{})
	approx := ApproxBetweenness(g, BetweennessOptions{Samples: 30, Seed: 1})
	// The scaled estimate should correlate strongly with the exact values:
	// compare rank of the top exact vertex.
	var maxV int
	for v := range exact {
		if exact[v] > exact[maxV] {
			maxV = v
		}
	}
	// The top exact vertex should rank within the top 20% by the estimate.
	better := 0
	for v := range approx {
		if approx[v] > approx[maxV] {
			better++
		}
	}
	if better > len(approx)/5 {
		t.Fatalf("top vertex ranked %d by sampled estimate", better)
	}
}

// TestBetweennessParallelMatchesSerial pins the scores' bits, not just their
// values, across worker counts: a host's core count must not reach the
// output. It covers exact and sampled runs, with more sources than blocks.
func TestBetweennessParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	g := graph.New(300)
	for i := 0; i < 1500; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(rng.Int64N(300)), Dst: graph.VertexID(rng.Int64N(300))})
	}
	run := func(procs int, opt BetweennessOptions) []float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return ApproxBetweenness(g, opt)
	}
	for _, opt := range []BetweennessOptions{{}, {Samples: 100, Seed: 3}} {
		serial, parallel := run(1, opt), run(8, opt)
		for v := range serial {
			if math.Float64bits(serial[v]) != math.Float64bits(parallel[v]) {
				t.Fatalf("%+v: BC[%d]: serial %v vs parallel %v", opt, v, serial[v], parallel[v])
			}
		}
	}
}

func TestBetweennessEmptyAndMultiEdge(t *testing.T) {
	if bc := ApproxBetweenness(graph.New(0), BetweennessOptions{}); bc != nil {
		t.Fatal("empty graph produced scores")
	}
	// Multi-edges change sigma counts but the hub ordering must hold.
	g := graph.New(3)
	g.AddEdge(graph.Edge{Src: 0, Dst: 1})
	g.AddEdge(graph.Edge{Src: 0, Dst: 1})
	g.AddEdge(graph.Edge{Src: 1, Dst: 2})
	bc := ApproxBetweenness(g, BetweennessOptions{})
	if bc[1] <= bc[0] || bc[1] <= bc[2] {
		t.Fatalf("middle vertex not dominant: %v", bc)
	}
}

func TestClusteringCoefficientsTriangle(t *testing.T) {
	// A directed triangle is an undirected triangle: all coefficients 1.
	g := graph.New(3)
	g.AddEdge(graph.Edge{Src: 0, Dst: 1})
	g.AddEdge(graph.Edge{Src: 1, Dst: 2})
	g.AddEdge(graph.Edge{Src: 2, Dst: 0})
	local, global := ClusteringCoefficients(g)
	if local != 1 || global != 1 {
		t.Fatalf("triangle clustering = %g/%g, want 1/1", local, global)
	}
}

func TestClusteringCoefficientsPath(t *testing.T) {
	// A path has no triangles: zero clustering.
	g := graph.New(4)
	g.AddEdge(graph.Edge{Src: 0, Dst: 1})
	g.AddEdge(graph.Edge{Src: 1, Dst: 2})
	g.AddEdge(graph.Edge{Src: 2, Dst: 3})
	local, global := ClusteringCoefficients(g)
	if local != 0 || global != 0 {
		t.Fatalf("path clustering = %g/%g, want 0/0", local, global)
	}
}

func TestClusteringCoefficientsMixed(t *testing.T) {
	// Triangle 0-1-2 plus pendant 2-3: v2 has degree 3, 1 of 3 neighbor
	// pairs linked; v0, v1 have coefficient 1; v3 degree 1 excluded.
	g := graph.New(4)
	g.AddEdge(graph.Edge{Src: 0, Dst: 1})
	g.AddEdge(graph.Edge{Src: 1, Dst: 2})
	g.AddEdge(graph.Edge{Src: 2, Dst: 0})
	g.AddEdge(graph.Edge{Src: 2, Dst: 3})
	local, global := ClusteringCoefficients(g)
	wantLocal := (1.0 + 1.0 + 1.0/3.0) / 3.0
	if math.Abs(local-wantLocal) > 1e-12 {
		t.Fatalf("local = %g, want %g", local, wantLocal)
	}
	// Triads: v0:1, v1:1, v2:3 => closed 1+1+1 = 3 of 5.
	if math.Abs(global-3.0/5.0) > 1e-12 {
		t.Fatalf("global = %g, want 0.6", global)
	}
}

func TestClusteringIgnoresMultiEdgesAndLoops(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(graph.Edge{Src: 0, Dst: 1})
	g.AddEdge(graph.Edge{Src: 0, Dst: 1}) // duplicate
	g.AddEdge(graph.Edge{Src: 1, Dst: 0}) // reverse duplicate
	g.AddEdge(graph.Edge{Src: 1, Dst: 2})
	g.AddEdge(graph.Edge{Src: 2, Dst: 2}) // self loop
	g.AddEdge(graph.Edge{Src: 2, Dst: 0})
	local, global := ClusteringCoefficients(g)
	if local != 1 || global != 1 {
		t.Fatalf("multigraph triangle clustering = %g/%g, want 1/1", local, global)
	}
}

func TestClusteringEmpty(t *testing.T) {
	local, global := ClusteringCoefficients(graph.New(5))
	if local != 0 || global != 0 {
		t.Fatalf("empty clustering = %g/%g", local, global)
	}
}
