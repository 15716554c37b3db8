package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"csb/internal/cluster"
	"csb/internal/graph"
	"csb/internal/stats"
)

func TestPGPBAValidation(t *testing.T) {
	s := traceSeed(t, 10, 100, 1)
	cases := []struct {
		name string
		gen  PGPBA
		size int64
	}{
		{"zero fraction", PGPBA{Fraction: 0}, 10000},
		{"negative fraction", PGPBA{Fraction: -1}, 10000},
		{"NaN fraction", PGPBA{Fraction: math.NaN()}, 10000},
		{"+Inf fraction", PGPBA{Fraction: math.Inf(1)}, 10000},
		{"size below seed", PGPBA{Fraction: 0.1}, 1},
	}
	for _, c := range cases {
		if _, err := c.gen.Generate(s, c.size); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	var empty PGPBA
	if _, err := empty.Generate(nil, 10); err == nil {
		t.Error("nil seed accepted")
	}
}

func TestPGPBAGrowsToDesiredSize(t *testing.T) {
	s := traceSeed(t, 20, 300, 2)
	gen := PGPBA{Fraction: 0.3, Seed: 7}
	g, err := gen.Generate(s, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 5000 {
		t.Fatalf("edges = %d, want >= 5000", g.NumEdges())
	}
	// Probabilistic overshoot is expected but bounded: one round adds about
	// fraction*|E|*(meanIn+meanOut).
	bound := int64(float64(5000) * (1 + 0.3*(s.InDegree.Mean()+s.OutDegree.Mean())))
	if g.NumEdges() > bound {
		t.Fatalf("edges = %d, overshoot beyond bound %d", g.NumEdges(), bound)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() <= s.Graph.NumVertices() {
		t.Fatal("no vertices added")
	}
}

func TestPGPBADeterministic(t *testing.T) {
	s := traceSeed(t, 15, 200, 3)
	gen := PGPBA{Fraction: 0.5, Seed: 9}
	a, err := gen.Generate(s, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Generate(s, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() || a.NumVertices() != b.NumVertices() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for i := range a.EdgeSlice() {
		if a.EdgeSlice()[i] != b.EdgeSlice()[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestPGPBAAssignsProperties(t *testing.T) {
	s := traceSeed(t, 15, 200, 4)
	g, err := (&PGPBA{Fraction: 0.5, Seed: 11}).Generate(s, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range g.EdgeSlice() {
		if e.Props.Protocol == graph.ProtoUnknown {
			t.Fatalf("edge %d has no protocol", i)
		}
		if e.Props.OutPkts == 0 && e.Props.InPkts == 0 {
			t.Fatalf("edge %d has empty packet counters", i)
		}
	}
}

func TestPGPBASkipProperties(t *testing.T) {
	s := traceSeed(t, 15, 200, 5)
	g, err := (&PGPBA{Fraction: 0.5, Seed: 12, SkipProperties: true}).Generate(s, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// No edge carries attributes when synthesis is skipped — the seed's
	// own edges included, as on PGSK.
	for i, e := range g.EdgeSlice() {
		if e.Props != (graph.EdgeProps{}) {
			t.Fatalf("SkipProperties left attributes on edge %d: %+v", i, e.Props)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPGPBAVertexLimit(t *testing.T) {
	limit := int64(graph.MaxBatchVertexID) + 1
	if err := checkVertexLimit(limit); err != nil {
		t.Fatalf("2^32 vertices (IDs up to 2^32-1) refused: %v", err)
	}
	err := checkVertexLimit(limit + 1)
	if err == nil || err.Error() != "pgpba: 4294967297 vertices exceed the columnar limit 2^32" {
		t.Fatalf("err = %v", err)
	}
}

func TestPGPBAFractionTwo(t *testing.T) {
	// The paper's Figure 9 configuration: fraction = 2 (with-replacement
	// sampling of the edge list).
	s := traceSeed(t, 15, 200, 6)
	g, err := (&PGPBA{Fraction: 2, Seed: 13}).Generate(s, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 20000 {
		t.Fatalf("edges = %d, want >= 20000", g.NumEdges())
	}
}

func TestPGPBAHeavyTailDegrees(t *testing.T) {
	s := traceSeed(t, 30, 500, 7)
	g, err := (&PGPBA{Fraction: 0.1, Seed: 14}).Generate(s, 30000)
	if err != nil {
		t.Fatal(err)
	}
	sum := stats.SummarizeInt(g.Degrees())
	if sum.Max < 10*sum.Median {
		t.Fatalf("no heavy tail: max %g median %g", sum.Max, sum.Median)
	}
}

func TestPGPBAVeracityAgainstSeed(t *testing.T) {
	s := traceSeed(t, 30, 500, 8)
	g, err := (&PGPBA{Fraction: 0.1, Seed: 15}).Generate(s, 20000)
	if err != nil {
		t.Fatal(err)
	}
	score, err := stats.VeracityScoreInt(s.Graph.Degrees(), g.Degrees())
	if err != nil {
		t.Fatal(err)
	}
	if score > 1e-3 {
		t.Fatalf("degree veracity score = %g, want small", score)
	}
}

func TestPGPBAOnExplicitCluster(t *testing.T) {
	s := traceSeed(t, 15, 200, 9)
	c := cluster.MustNew(cluster.Config{Nodes: 4, CoresPerNode: 2, DefaultPartitions: 8})
	g, err := (&PGPBA{Fraction: 0.5, Seed: 16, Cluster: c}).Generate(s, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 3000 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	m := c.Metrics()
	if m.Stages == 0 || m.Tasks == 0 {
		t.Fatalf("cluster not exercised: %+v", m)
	}
}

func TestPGPBACancelledGenerationReturnsPromptly(t *testing.T) {
	s := traceSeed(t, 20, 300, 10)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := cluster.MustNew(cluster.Config{Nodes: 1, CoresPerNode: 2, Context: ctx})
	done := make(chan error, 1)
	go func() {
		// A target this far beyond the seed takes many rounds, so the
		// cancel always lands mid-generation.
		_, err := (&PGPBA{Fraction: 0.1, Seed: 17, Cluster: c}).Generate(s, 20_000_000)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled generation did not return promptly")
	}
}

func TestGeneratorsRejectDeadCluster(t *testing.T) {
	// A context that is already done must stop both generators before any
	// growth happens — PGSK's Kronecker top-up loop in particular must not
	// spin on the empty partitions a cancelled cluster produces.
	s := traceSeed(t, 15, 200, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := cluster.MustNew(cluster.Config{Nodes: 1, CoresPerNode: 2, Context: ctx})
	if _, err := (&PGPBA{Fraction: 0.5, Seed: 18, Cluster: c}).Generate(s, 2000); !errors.Is(err, context.Canceled) {
		t.Fatalf("pgpba err = %v, want context.Canceled", err)
	}
	if _, err := (&PGSK{Seed: 18, Cluster: c}).Generate(s, 2000); !errors.Is(err, context.Canceled) {
		t.Fatalf("pgsk err = %v, want context.Canceled", err)
	}
}

func TestSampleWithReplacementFractions(t *testing.T) {
	c := cluster.Local(2)
	edges := make([]graph.Edge, 1000)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i % 10), Dst: graph.VertexID((i + 1) % 10)}
	}
	ds := cluster.Parallelize(c, edges, 4)
	if n := sampleWithReplacement(ds, 2, 1).Count(); n != 2000 {
		t.Errorf("fraction 2 sampled %d, want 2000", n)
	}
	n := sampleWithReplacement(ds, 0.25, 1).Count()
	if n < 150 || n > 350 {
		t.Errorf("fraction 0.25 sampled %d, want ~250", n)
	}
}

func TestPartitionOffsets(t *testing.T) {
	c := cluster.Local(2)
	ds := cluster.Parallelize(c, make([]int, 10), 3)
	off := ds.Offsets()
	want := []int64{0, 4, 7} // balanced split of 10 over 3: 4,3,3
	for i := range want {
		if off[i] != want[i] {
			t.Fatalf("offsets = %v, want %v", off, want)
		}
	}
}

func TestPGPBASpreadAttachmentReducesHubConcentration(t *testing.T) {
	s := traceSeed(t, 30, 500, 20)
	clumped, err := (&PGPBA{Fraction: 0.3, Seed: 21}).Generate(s, 30000)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := (&PGPBA{Fraction: 0.3, Seed: 21, SpreadAttachment: true}).Generate(s, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if err := spread.Validate(); err != nil {
		t.Fatal(err)
	}
	maxDeg := func(g *graph.Graph) int64 {
		var m int64
		for _, d := range g.Degrees() {
			if d > m {
				m = d
			}
		}
		return m
	}
	// Re-sampling destinations per edge spreads attachment mass: the top
	// hub must shrink versus the paper's single-destination variant.
	if maxDeg(spread) >= maxDeg(clumped) {
		t.Fatalf("spread hub %d not below clumped hub %d", maxDeg(spread), maxDeg(clumped))
	}
	// Both variants stay scale-free.
	sum := stats.SummarizeInt(spread.Degrees())
	if sum.Max < 5*sum.Median {
		t.Fatalf("spread variant lost its tail: %+v", sum)
	}
}
