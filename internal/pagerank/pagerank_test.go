package pagerank

import (
	"math"
	"math/rand/v2"
	"testing"

	"csb/internal/graph"
)

func ranksOf(t *testing.T, g *graph.Graph, opt Options) []float64 {
	t.Helper()
	res, err := Compute(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Ranks
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestEmptyGraphError(t *testing.T) {
	if _, err := Compute(graph.New(0), Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestBadDamping(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(graph.Edge{Src: 0, Dst: 1})
	for _, d := range []float64{-0.1, 1, 1.5} {
		if _, err := Compute(g, Options{Damping: d}); err == nil {
			t.Errorf("damping %g accepted", d)
		}
	}
}

func TestCycleUniform(t *testing.T) {
	// A directed cycle is perfectly symmetric: ranks must be uniform.
	const n = 10
	g := graph.New(n)
	for i := int64(0); i < n; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n)})
	}
	r := ranksOf(t, g, Options{})
	for v, rv := range r {
		if math.Abs(rv-0.1) > 1e-9 {
			t.Fatalf("rank[%d] = %g, want 0.1", v, rv)
		}
	}
}

func TestSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	g := graph.New(50)
	for i := 0; i < 300; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(rng.Int64N(50)), Dst: graph.VertexID(rng.Int64N(50))})
	}
	r := ranksOf(t, g, Options{})
	if s := sum(r); math.Abs(s-1) > 1e-9 {
		t.Fatalf("ranks sum to %g, want 1", s)
	}
}

func TestStarCenterDominates(t *testing.T) {
	// Every leaf points at the hub: the hub must hold the highest rank.
	const n = 20
	g := graph.New(n)
	for i := int64(1); i < n; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: 0})
	}
	r := ranksOf(t, g, Options{})
	for v := 1; v < n; v++ {
		if r[0] <= r[v] {
			t.Fatalf("hub rank %g not above leaf %d rank %g", r[0], v, r[v])
		}
	}
}

func TestKnownTwoNodeValue(t *testing.T) {
	// 0 -> 1 with damping 0.85:
	// r0 = 0.15/2 + 0.85*dangling(=r1)/2 ; r1 = r0's push + base.
	// Solve analytically via iteration to fixed point and compare.
	g := graph.New(2)
	g.AddEdge(graph.Edge{Src: 0, Dst: 1})
	r := ranksOf(t, g, Options{Tol: 1e-14, MaxIter: 500})
	// Fixed point equations: r0 = 0.075 + 0.425*r1 ; r1 = 0.075 + 0.425*r1 + 0.85*r0.
	r0 := r[0]
	r1 := r[1]
	if math.Abs(r0-(0.075+0.425*r1)) > 1e-9 {
		t.Fatalf("r0 equation violated: r0=%g r1=%g", r0, r1)
	}
	if math.Abs(r1-(0.075+0.425*r1+0.85*r0)) > 1e-9 {
		t.Fatalf("r1 equation violated: r0=%g r1=%g", r0, r1)
	}
	if r1 <= r0 {
		t.Fatal("sink not ranked above source")
	}
}

func TestDanglingMassConserved(t *testing.T) {
	// Graph with a pure sink: ranks still sum to 1.
	g := graph.New(3)
	g.AddEdge(graph.Edge{Src: 0, Dst: 2})
	g.AddEdge(graph.Edge{Src: 1, Dst: 2})
	r := ranksOf(t, g, Options{})
	if s := sum(r); math.Abs(s-1) > 1e-9 {
		t.Fatalf("sum = %g with dangling sink", s)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	g := graph.New(200)
	for i := 0; i < 2000; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(rng.Int64N(200)), Dst: graph.VertexID(rng.Int64N(200))})
	}
	serial := ranksOf(t, g, Options{Parallelism: 1})
	parallel := ranksOf(t, g, Options{Parallelism: 8})
	for v := range serial {
		if math.Abs(serial[v]-parallel[v]) > 1e-12 {
			t.Fatalf("rank[%d]: serial %g vs parallel %g", v, serial[v], parallel[v])
		}
	}
}

func TestConvergenceReported(t *testing.T) {
	g := graph.New(4)
	for i := int64(0); i < 4; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % 4)})
	}
	res, err := Compute(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("cycle did not converge")
	}
	if res.Iterations <= 0 || res.Iterations > 100 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	// With MaxIter 1 the loop cannot converge on an asymmetric graph.
	g2 := graph.New(3)
	g2.AddEdge(graph.Edge{Src: 0, Dst: 1})
	g2.AddEdge(graph.Edge{Src: 1, Dst: 2})
	res2, err := Compute(g2, Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Converged {
		t.Fatal("claimed convergence after 1 iteration")
	}
}

func TestMultiEdgeWeighting(t *testing.T) {
	// 0 has 3 edges to 1 and 1 edge to 2: vertex 1 must receive three times
	// vertex 2's share from 0.
	g := graph.New(3)
	g.AddEdge(graph.Edge{Src: 0, Dst: 1})
	g.AddEdge(graph.Edge{Src: 0, Dst: 1})
	g.AddEdge(graph.Edge{Src: 0, Dst: 1})
	g.AddEdge(graph.Edge{Src: 0, Dst: 2})
	r := ranksOf(t, g, Options{})
	if r[1] <= r[2] {
		t.Fatalf("multi-edge target not favoured: r1=%g r2=%g", r[1], r[2])
	}
}
