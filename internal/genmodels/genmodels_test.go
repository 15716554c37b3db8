package genmodels

import (
	"bytes"
	"math"
	"testing"

	"csb/internal/graph"
	"csb/internal/stats"
)

func TestErdosRenyiSizesAndDistinct(t *testing.T) {
	g, err := ErdosRenyi(100, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 100 || g.NumEdges() != 500 {
		t.Fatalf("ER size %d/%d", g.NumVertices(), g.NumEdges())
	}
	if s := g.Simplify(); s.NumEdges() != 500 {
		t.Fatalf("ER edges not distinct: %d", s.NumEdges())
	}
	for i := range g.Cols().Len() {
		e := g.Cols().Edge(i)
		if e.Src == e.Dst {
			t.Fatal("ER self-loop")
		}
	}
}

func TestErdosRenyiValidation(t *testing.T) {
	if _, err := ErdosRenyi(1, 0, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ErdosRenyi(3, 7, 1); err == nil {
		t.Error("m > n(n-1) accepted")
	}
	if _, err := ErdosRenyi(3, -1, 1); err == nil {
		t.Error("negative m accepted")
	}
}

func TestErdosRenyiDegreesConcentrate(t *testing.T) {
	// ER's hallmark: no heavy tail. Max degree stays within a small factor
	// of the mean.
	g, err := ErdosRenyi(1000, 10000, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := stats.SummarizeInt(g.Degrees())
	if s.Max > 4*s.Mean {
		t.Fatalf("ER degree tail too heavy: max %g mean %g", s.Max, s.Mean)
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta = 0: pure ring lattice, every vertex has out-degree k.
	g, err := WattsStrogatz(20, 3, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 60 {
		t.Fatalf("WS edges = %d, want 60", g.NumEdges())
	}
	for v, d := range g.OutDegrees() {
		if d != 3 {
			t.Fatalf("WS out-degree[%d] = %d, want 3", v, d)
		}
	}
	// Lattice structure: 0 connects to 1, 2, 3.
	for i := range g.Cols().Len() {
		e := g.Cols().Edge(i)
		if e.Src == 0 && (e.Dst < 1 || e.Dst > 3) {
			t.Fatalf("lattice edge 0->%d unexpected", e.Dst)
		}
	}
}

func TestWattsStrogatzRewiring(t *testing.T) {
	g, err := WattsStrogatz(200, 2, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	// With beta=0.5 roughly half the edges leave the lattice neighborhood.
	rewired := 0
	for i := range g.Cols().Len() {
		e := g.Cols().Edge(i)
		diff := (int64(e.Dst) - int64(e.Src) + 200) % 200
		if diff > 2 {
			rewired++
		}
	}
	if rewired < 100 || rewired > 300 {
		t.Fatalf("rewired = %d of 400, want ~200", rewired)
	}
	for i := range g.Cols().Len() {
		e := g.Cols().Edge(i)
		if e.Src == e.Dst {
			t.Fatal("WS self-loop after rewiring")
		}
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	if _, err := WattsStrogatz(2, 1, 0, 1); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := WattsStrogatz(10, 0, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := WattsStrogatz(10, 10, 0, 1); err == nil {
		t.Error("k=n accepted")
	}
	if _, err := WattsStrogatz(10, 2, 1.5, 1); err == nil {
		t.Error("beta>1 accepted")
	}
}

func TestChungLuMatchesExpectedDegrees(t *testing.T) {
	// Power-lawish expected degrees; realized degrees should track them.
	n := 500
	out := make([]float64, n)
	in := make([]float64, n)
	var sum float64
	for i := range out {
		out[i] = 100.0 / float64(i+1)
		in[i] = out[i]
		sum += out[i]
	}
	g, err := ChungLu(out, in, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(g.NumEdges())-sum) > 1 {
		t.Fatalf("CL edges = %d, want ~%g", g.NumEdges(), sum)
	}
	// Vertex 0 expects out-degree 100; Poisson-ish tolerance.
	od := g.OutDegrees()
	if od[0] < 60 || od[0] > 150 {
		t.Fatalf("CL out-degree[0] = %d, want ~100", od[0])
	}
	// Rank order roughly preserved: top vertex beats a mid-ranked one.
	if od[0] <= od[250] {
		t.Fatalf("CL degrees not tracking weights: %d vs %d", od[0], od[250])
	}
}

func TestChungLuValidation(t *testing.T) {
	if _, err := ChungLu(nil, nil, 1); err == nil {
		t.Error("empty sequences accepted")
	}
	if _, err := ChungLu([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("ragged sequences accepted")
	}
	if _, err := ChungLu([]float64{-1, 2}, []float64{1, 1}, 1); err == nil {
		t.Error("negative degree accepted")
	}
	if _, err := ChungLu([]float64{0, 0}, []float64{0, 0}, 1); err == nil {
		t.Error("zero-sum accepted")
	}
}

func TestSBMBlockStructure(t *testing.T) {
	g, err := SBM([]int64{50, 50}, [][]float64{{0.2, 0.01}, {0.01, 0.2}}, 6)
	if err != nil {
		t.Fatal(err)
	}
	var within, across int
	for i := range g.Cols().Len() {
		e := g.Cols().Edge(i)
		sameBlock := (e.Src < 50) == (e.Dst < 50)
		if sameBlock {
			within++
		} else {
			across++
		}
	}
	// Expected: within ~ 2*0.2*50*50 = 1000, across ~ 2*0.01*2500 = 50.
	if within < 700 || within > 1300 {
		t.Fatalf("within-block edges = %d, want ~1000", within)
	}
	if across > 150 {
		t.Fatalf("cross-block edges = %d, want ~50", across)
	}
	for i := range g.Cols().Len() {
		e := g.Cols().Edge(i)
		if e.Src == e.Dst {
			t.Fatal("SBM self-loop")
		}
	}
}

func TestSBMValidation(t *testing.T) {
	if _, err := SBM(nil, nil, 1); err == nil {
		t.Error("empty blocks accepted")
	}
	if _, err := SBM([]int64{2}, [][]float64{{0.1, 0.2}}, 1); err == nil {
		t.Error("non-square matrix accepted")
	}
	if _, err := SBM([]int64{0}, [][]float64{{0.1}}, 1); err == nil {
		t.Error("zero block accepted")
	}
	if _, err := SBM([]int64{2}, [][]float64{{1.5}}, 1); err == nil {
		t.Error("probability > 1 accepted")
	}
}

func TestSBMDenseProbability(t *testing.T) {
	// p = 1 must produce the complete bipartite pattern minus self-loops.
	g, err := SBM([]int64{3, 2}, [][]float64{{1, 1}, {1, 1}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 5*5-5 {
		t.Fatalf("dense SBM edges = %d, want 20", g.NumEdges())
	}
}

func TestRMATHeavyTail(t *testing.T) {
	g, err := RMAT(12, 40000, 0.57, 0.19, 0.19, 0.05, 8)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4096 || g.NumEdges() != 40000 {
		t.Fatalf("RMAT size %d/%d", g.NumVertices(), g.NumEdges())
	}
	s := stats.SummarizeInt(g.Degrees())
	if s.Max < 10*s.Median {
		t.Fatalf("RMAT tail not heavy: max %g median %g", s.Max, s.Median)
	}
}

func TestRMATValidation(t *testing.T) {
	if _, err := RMAT(0, 10, 0.25, 0.25, 0.25, 0.25, 1); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := RMAT(5, -1, 0.25, 0.25, 0.25, 0.25, 1); err == nil {
		t.Error("negative edges accepted")
	}
	if _, err := RMAT(5, 10, 0.5, 0.5, 0.5, 0.5, 1); err == nil {
		t.Error("probabilities summing to 2 accepted")
	}
	if _, err := RMAT(5, 10, -0.1, 0.4, 0.4, 0.3, 1); err == nil {
		t.Error("negative probability accepted")
	}
}

func TestModelsDeterministic(t *testing.T) {
	build := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return ErdosRenyi(50, 200, 9) },
		func() (*graph.Graph, error) { return WattsStrogatz(50, 2, 0.3, 9) },
		func() (*graph.Graph, error) { return RMAT(8, 500, 0.57, 0.19, 0.19, 0.05, 9) },
		func() (*graph.Graph, error) { return SBM([]int64{20, 20}, [][]float64{{0.2, 0.02}, {0.02, 0.2}}, 9) },
	}
	for i, f := range build {
		a, err := f()
		if err != nil {
			t.Fatal(err)
		}
		b, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if a.NumEdges() != b.NumEdges() {
			t.Fatalf("model %d not deterministic in size", i)
		}
		if !bytes.Equal(a.AppendEdgeList(nil), b.AppendEdgeList(nil)) {
			t.Fatalf("model %d edge lists differ", i)
		}
	}
}
