package kronecker

import (
	"bytes"
	"math"
	"testing"

	"csb/internal/cluster"
	"csb/internal/stats"
)

func TestInitiatorValidate(t *testing.T) {
	if err := DefaultInitiator().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Initiator{
		{Theta: [4]float64{-0.1, 0.5, 0.5, 0.1}},
		{Theta: [4]float64{1.1, 0.5, 0.5, 0.1}},
		{Theta: [4]float64{0, 0, 0, 0}},
		{Theta: [4]float64{math.NaN(), 0.5, 0.5, 0.1}},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("initiator %d accepted: %v", i, in)
		}
	}
}

func TestInitiatorArithmetic(t *testing.T) {
	in := DefaultInitiator()
	if math.Abs(in.Sum()-2.0) > 1e-12 {
		t.Errorf("Sum = %g, want 2", in.Sum())
	}
	if math.Abs(in.SumSquares()-(0.81+0.25+0.25+0.01)) > 1e-12 {
		t.Errorf("SumSquares = %g", in.SumSquares())
	}
	if math.Abs(in.ExpectedEdges(10)-1024) > 1e-9 {
		t.Errorf("ExpectedEdges(10) = %g, want 1024", in.ExpectedEdges(10))
	}
	if NumVertices(10) != 1024 {
		t.Errorf("NumVertices(10) = %d", NumVertices(10))
	}
	if in.String() == "" {
		t.Error("empty String")
	}
}

func TestGenerateDistinctAndSized(t *testing.T) {
	g, err := Generate(DefaultInitiator(), 10, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2000 {
		t.Fatalf("edges = %d, want 2000", g.NumEdges())
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("vertices = %d, want 1024", g.NumVertices())
	}
	seen := map[[2]int64]bool{}
	for i := range g.Cols().Len() {
		e := g.Cols().Edge(i)
		k := [2]int64{int64(e.Src), int64(e.Dst)}
		if seen[k] {
			t.Fatalf("duplicate edge %v", k)
		}
		seen[k] = true
	}
}

func TestGenerateDefaultsToExpectedEdges(t *testing.T) {
	g, err := Generate(DefaultInitiator(), 8, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(256) // 2^8
	if g.NumEdges() != want {
		t.Fatalf("edges = %d, want (Σθ)^k = %d", g.NumEdges(), want)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Initiator{}, 5, 10, 1); err == nil {
		t.Error("zero initiator accepted")
	}
	if _, err := Generate(DefaultInitiator(), 0, 10, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Generate(DefaultInitiator(), 2, 100, 1); err == nil {
		t.Error("more edges than cells accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultInitiator(), 9, 500, 7)
	b, _ := Generate(DefaultInitiator(), 9, 500, 7)
	if !bytes.Equal(a.AppendEdgeList(nil), b.AppendEdgeList(nil)) {
		t.Fatal("edge lists differ")
	}
}

func TestGenerateCoreConcentration(t *testing.T) {
	// With θ00 >> θ11, low-ID vertices (all-zero bit prefixes) must carry
	// far more edges than high-ID ones.
	in := Initiator{Theta: [4]float64{0.95, 0.4, 0.4, 0.05}}
	g, err := Generate(in, 12, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	var low, high int64
	for i := range g.Cols().Len() {
		e := g.Cols().Edge(i)
		if int64(e.Src) < n/2 {
			low++
		} else {
			high++
		}
	}
	if low < 2*high {
		t.Fatalf("core not dominant: low %d high %d", low, high)
	}
}

func TestGenerateHeavyTailDegrees(t *testing.T) {
	g, err := Generate(DefaultInitiator(), 14, 40000, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := stats.SummarizeInt(g.Degrees())
	if s.Max < 10*s.Median {
		t.Fatalf("degrees not heavy tailed: max %g median %g", s.Max, s.Median)
	}
}

func TestGenerateParallelMatchesContract(t *testing.T) {
	c := cluster.MustNew(cluster.Config{Nodes: 2, CoresPerNode: 2, DefaultPartitions: 8})
	g, err := GenerateParallel(c, DefaultInitiator(), 10, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2000 {
		t.Fatalf("edges = %d, want 2000", g.NumEdges())
	}
	seen := map[[2]int64]bool{}
	for i := range g.Cols().Len() {
		e := g.Cols().Edge(i)
		k := [2]int64{int64(e.Src), int64(e.Dst)}
		if seen[k] {
			t.Fatalf("duplicate edge %v", k)
		}
		seen[k] = true
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The distinct rounds must have charged serial (shuffle) time.
	if c.Metrics().SerialTime <= 0 {
		t.Error("no serial time from Distinct rounds")
	}
}

func TestGenerateParallelValidation(t *testing.T) {
	c := cluster.Local(2)
	if _, err := GenerateParallel(c, Initiator{}, 5, 10, 1); err == nil {
		t.Error("zero initiator accepted")
	}
	if _, err := GenerateParallel(c, DefaultInitiator(), 63, 10, 1); err == nil {
		t.Error("k=63 accepted")
	}
	if _, err := GenerateParallel(c, DefaultInitiator(), 2, 100, 1); err == nil {
		t.Error("overfull graph accepted")
	}
}

func TestEdgeProbability(t *testing.T) {
	in := DefaultInitiator()
	// k=2, u=0,v=0: θ00² = 0.81.
	if p := EdgeProbability(&in, 2, 0, 0); math.Abs(p-0.81) > 1e-12 {
		t.Errorf("P(0,0) = %g, want 0.81", p)
	}
	// u=3 (bits 11), v=0 (bits 00): θ10² = 0.25.
	if p := EdgeProbability(&in, 2, 3, 0); math.Abs(p-0.25) > 1e-12 {
		t.Errorf("P(3,0) = %g, want 0.25", p)
	}
	// u=1 (01), v=2 (10): level0 (0,1)=0.5, level1 (1,0)=0.5.
	if p := EdgeProbability(&in, 2, 1, 2); math.Abs(p-0.25) > 1e-12 {
		t.Errorf("P(1,2) = %g, want 0.25", p)
	}
	// Probabilities over all cells sum to (Σθ)^k.
	var total float64
	for u := int64(0); u < 4; u++ {
		for v := int64(0); v < 4; v++ {
			total += EdgeProbability(&in, 2, u, v)
		}
	}
	if math.Abs(total-in.ExpectedEdges(2)) > 1e-9 {
		t.Errorf("cell probabilities sum to %g, want %g", total, in.ExpectedEdges(2))
	}
}
