package core

import (
	"bytes"
	"testing"

	"csb/internal/cluster"
	"csb/internal/graph"
	"csb/internal/kronecker"
	"csb/internal/stats"
)

func TestPGSKValidation(t *testing.T) {
	s := traceSeed(t, 10, 100, 1)
	var gen PGSK
	if _, err := gen.Generate(nil, 100); err == nil {
		t.Error("nil seed accepted")
	}
	if _, err := gen.Generate(s, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := gen.Generate(s, -5); err == nil {
		t.Error("negative size accepted")
	}
}

func TestPGSKGeneratesApproxDesiredSize(t *testing.T) {
	s := traceSeed(t, 20, 300, 2)
	gen := PGSK{Seed: 3}
	g, err := gen.Generate(s, 5000)
	if err != nil {
		t.Fatal(err)
	}
	// Duplication via the out-degree distribution is probabilistic: the
	// paper accepts approximate sizes; demand the right order of magnitude.
	if g.NumEdges() < 2500 || g.NumEdges() > 15000 {
		t.Fatalf("edges = %d, want ~5000", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPGSKSmallerThanSeed(t *testing.T) {
	// PGSK can generate graphs smaller than the seed (the paper's Figures
	// 6-7 start its curve at 100 edges).
	s := traceSeed(t, 30, 800, 4)
	g, err := (&PGSK{Seed: 5}).Generate(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 30 || g.NumEdges() > 500 {
		t.Fatalf("edges = %d, want ~100", g.NumEdges())
	}
}

func TestPGSKDeterministic(t *testing.T) {
	s := traceSeed(t, 15, 200, 6)
	gen := PGSK{Seed: 7}
	a, err := gen.Generate(s, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Generate(s, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("sizes differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	if !bytes.Equal(a.AppendEdgeList(nil), b.AppendEdgeList(nil)) {
		t.Fatal("edge lists differ")
	}
}

func TestPGSKWithProvidedInitiator(t *testing.T) {
	s := traceSeed(t, 15, 200, 8)
	init := kronecker.Initiator{Theta: [4]float64{0.9, 0.55, 0.45, 0.2}}
	g, err := (&PGSK{Seed: 9, Initiator: &init}).Generate(s, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 1500 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestPGSKAssignsProperties(t *testing.T) {
	s := traceSeed(t, 15, 200, 10)
	g, err := (&PGSK{Seed: 11}).Generate(s, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Cols().Len() {
		e := g.Cols().Edge(i)
		if e.Props.Protocol == graph.ProtoUnknown {
			t.Fatalf("edge %d missing protocol", i)
		}
	}
	// SkipProperties leaves structural edges bare.
	bare, err := (&PGSK{Seed: 11, SkipProperties: true}).Generate(s, 2000)
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	for i := range bare.Cols().Len() {
		e := bare.Cols().Edge(i)
		if e.Props == (graph.EdgeProps{}) {
			zero++
		}
	}
	if zero == 0 {
		t.Fatal("SkipProperties still assigned properties")
	}
}

func TestPGSKDuplicationRestoresMultigraph(t *testing.T) {
	s := traceSeed(t, 20, 400, 12)
	g, err := (&PGSK{Seed: 13}).Generate(s, 5000)
	if err != nil {
		t.Fatal(err)
	}
	simple := g.Simplify()
	if simple.NumEdges() >= g.NumEdges() {
		t.Fatalf("no duplication: %d simple vs %d multi", simple.NumEdges(), g.NumEdges())
	}
}

func TestPGSKOnExplicitCluster(t *testing.T) {
	s := traceSeed(t, 15, 200, 14)
	c := cluster.MustNew(cluster.Config{Nodes: 3, CoresPerNode: 2, DefaultPartitions: 6})
	g, err := (&PGSK{Seed: 15, Cluster: c}).Generate(s, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges")
	}
	m := c.Metrics()
	if m.SerialTime <= 0 {
		t.Fatal("PGSK must pay serial (distinct/shuffle) time")
	}
}

func TestPGSKVeracityAgainstSeed(t *testing.T) {
	s := traceSeed(t, 30, 500, 16)
	g, err := (&PGSK{Seed: 17}).Generate(s, 20000)
	if err != nil {
		t.Fatal(err)
	}
	score, err := stats.VeracityScoreInt(s.Graph.Degrees(), g.Degrees())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports PGSK degree veracity up to 6.37e-3 (Section V-A).
	if score > 7e-3 {
		t.Fatalf("degree veracity = %g, want within the paper's PGSK range", score)
	}
}

func TestIterationsFor(t *testing.T) {
	init := kronecker.Initiator{Theta: [4]float64{0.9, 0.5, 0.5, 0.1}} // sum 2
	k, err := iterationsFor(init, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if init.ExpectedEdges(k) < 1000 {
		t.Fatalf("k = %d too small", k)
	}
	if kronecker.NumVertices(k)*kronecker.NumVertices(k) < 2000 {
		t.Fatalf("k = %d grid too small", k)
	}
	// Non-growing initiator must error.
	flat := kronecker.Initiator{Theta: [4]float64{0.2, 0.2, 0.2, 0.2}}
	if _, err := iterationsFor(flat, 1000); err == nil {
		t.Fatal("sum<=1 initiator accepted")
	}
}

func TestGeneratorNames(t *testing.T) {
	if (&PGPBA{}).Name() != "PGPBA" || (&PGSK{}).Name() != "PGSK" {
		t.Fatal("generator names wrong")
	}
}
