package graphalgo

import (
	"math"
	"testing"

	"csb/internal/graph"
)

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
