package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestBuildCSRBasic(t *testing.T) {
	g := New(4)
	g.AddEdge(Edge{Src: 0, Dst: 1})
	g.AddEdge(Edge{Src: 0, Dst: 2})
	g.AddEdge(Edge{Src: 2, Dst: 3})
	g.AddEdge(Edge{Src: 3, Dst: 0})

	c := BuildReverseCSR(g)
	if c.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", c.NumVertices())
	}
	if len(c.Targets) != 4 {
		t.Fatalf("%d arcs, want 4", len(c.Targets))
	}
	if got := c.Neighbors(0); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Neighbors(0) = %v, want [3]", got)
	}
	if c.Degree(1) != 1 || c.Neighbors(1)[0] != 0 {
		t.Fatalf("Neighbors(1) = %v, want [0]", c.Neighbors(1))
	}
	if c.Degree(3) != 1 || c.Neighbors(3)[0] != 2 {
		t.Fatalf("Neighbors(3) = %v, want [2]", c.Neighbors(3))
	}
}

func TestBuildReverseCSR(t *testing.T) {
	g := New(3)
	g.AddEdge(Edge{Src: 0, Dst: 2})
	g.AddEdge(Edge{Src: 1, Dst: 2})
	r := BuildReverseCSR(g)
	if r.Degree(2) != 2 {
		t.Fatalf("reverse Degree(2) = %d, want 2", r.Degree(2))
	}
	if r.Degree(0) != 0 || r.Degree(1) != 0 {
		t.Fatalf("reverse degrees of sources nonzero")
	}
}

func TestCSRMultiEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(Edge{Src: 0, Dst: 1})
	g.AddEdge(Edge{Src: 0, Dst: 1})
	c := BuildReverseCSR(g)
	if c.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2 (multi-edges kept)", c.Degree(1))
	}
}

func TestCSREmptyGraph(t *testing.T) {
	g := New(0)
	c := BuildReverseCSR(g)
	if c.NumVertices() != 0 || len(c.Targets) != 0 {
		t.Fatalf("empty CSR: %d vertices %d arcs", c.NumVertices(), len(c.Targets))
	}
}

// Property: reverse CSR degrees match InDegrees, for arbitrary graphs.
func TestCSRDegreeAgreement(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int64(nRaw%64) + 1
		m := int(mRaw % 2048)
		rng := rand.New(rand.NewPCG(seed, 3))
		g := randomGraph(rng, n, m)
		r := BuildReverseCSR(g)
		in := g.InDegrees()
		for v := int64(0); v < n; v++ {
			if r.Degree(VertexID(v)) != in[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
