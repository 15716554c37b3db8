package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("zero value not empty: %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AddEdge accepted an edge on a graph with no vertices")
			}
		}()
		g.AddEdge(Edge{Src: 0, Dst: 0})
	}()
	if got := string(g.AppendEdgeList(nil)); got != EdgeListHeader {
		t.Fatalf("zero value encodes as %q, want the bare header", got)
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	g := New(2)
	for _, e := range []Edge{{Src: 2, Dst: 0}, {Src: 0, Dst: 2}, {Src: -1, Dst: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%v) did not panic", e)
				}
			}()
			g.AddEdge(e)
		}()
	}
}

func TestMultiEdgesAllowed(t *testing.T) {
	g := New(2)
	for i := 0; i < 5; i++ {
		g.AddEdge(Edge{Src: 0, Dst: 1})
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5 multi-edges", g.NumEdges())
	}
	out := g.OutDegrees()
	if out[0] != 5 || out[1] != 0 {
		t.Fatalf("OutDegrees = %v, want [5 0]", out)
	}
}

func TestDegrees(t *testing.T) {
	g := New(4)
	es := []Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 3, Dst: 0}}
	for _, e := range es {
		g.AddEdge(e)
	}
	wantOut := []int64{2, 1, 0, 1}
	wantIn := []int64{1, 1, 2, 0}
	out, in, tot := g.OutDegrees(), g.InDegrees(), g.Degrees()
	for v := range wantOut {
		if out[v] != wantOut[v] {
			t.Errorf("out[%d] = %d, want %d", v, out[v], wantOut[v])
		}
		if in[v] != wantIn[v] {
			t.Errorf("in[%d] = %d, want %d", v, in[v], wantIn[v])
		}
		if tot[v] != wantOut[v]+wantIn[v] {
			t.Errorf("tot[%d] = %d, want %d", v, tot[v], wantOut[v]+wantIn[v])
		}
	}
}

func TestSimplifyDedupsAndStripsProps(t *testing.T) {
	g := New(3)
	g.AddEdge(Edge{Src: 0, Dst: 1, Props: EdgeProps{OutBytes: 100}})
	g.AddEdge(Edge{Src: 0, Dst: 1, Props: EdgeProps{OutBytes: 200}})
	g.AddEdge(Edge{Src: 1, Dst: 0})
	g.AddEdge(Edge{Src: 1, Dst: 2})
	s := g.Simplify()
	if s.NumEdges() != 3 {
		t.Fatalf("Simplify edges = %d, want 3", s.NumEdges())
	}
	if s.NumVertices() != 3 {
		t.Fatalf("Simplify vertices = %d, want 3", s.NumVertices())
	}
	for i := 0; i < s.cols.Len(); i++ {
		if p := s.cols.Props(i); p != (EdgeProps{}) {
			t.Fatalf("Simplify kept properties %v on edge %d", p, i)
		}
	}
}

func TestSimplifyDirectionality(t *testing.T) {
	// (0,1) and (1,0) are distinct ordered pairs and both must survive.
	g := New(2)
	g.AddEdge(Edge{Src: 0, Dst: 1})
	g.AddEdge(Edge{Src: 1, Dst: 0})
	if s := g.Simplify(); s.NumEdges() != 2 {
		t.Fatalf("Simplify edges = %d, want 2 (directed pairs)", s.NumEdges())
	}
}

func TestAddrTable(t *testing.T) {
	g := New(2)
	if g.addrs != nil {
		t.Fatal("address table before SetAddr")
	}
	if g.Addr(1) != 0 {
		t.Fatal("Addr nonzero before SetAddr")
	}
	g.SetAddr(1, 42)
	if g.addrs == nil || g.Addr(1) != 42 || g.Addr(0) != 0 {
		t.Fatalf("address table wrong: %v %d %d", g.addrs, g.Addr(1), g.Addr(0))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after SetAddr: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := New(2)
	g.AddEdge(Edge{Src: 0, Dst: 1})
	g.cols.dst[0] = 7 // corrupt directly
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range edge")
	}
}

func randomGraph(rng *rand.Rand, n int64, m int) *Graph {
	g := New(n)
	for i := 0; i < m; i++ {
		g.AddEdge(Edge{
			Src: VertexID(rng.Int64N(n)),
			Dst: VertexID(rng.Int64N(n)),
			Props: EdgeProps{
				Protocol: Protocol(rng.IntN(3) + 1),
				SrcPort:  uint16(rng.IntN(65536)),
				DstPort:  uint16(rng.IntN(65536)),
				Duration: rng.Int64N(1e6),
				OutBytes: rng.Int64N(1e9),
				InBytes:  rng.Int64N(1e9),
				OutPkts:  rng.Int64N(1e5),
				InPkts:   rng.Int64N(1e5),
			},
		})
	}
	return g
}

// Property: sum of out-degrees == sum of in-degrees == |E| for any graph.
func TestDegreeSumInvariant(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int64(nRaw%64) + 1
		m := int(mRaw % 2048)
		rng := rand.New(rand.NewPCG(seed, 1))
		g := randomGraph(rng, n, m)
		var so, si int64
		for _, d := range g.OutDegrees() {
			so += d
		}
		for _, d := range g.InDegrees() {
			si += d
		}
		return so == g.NumEdges() && si == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Simplify is idempotent and never increases the edge count.
func TestSimplifyIdempotent(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int64(nRaw%32) + 1
		m := int(mRaw % 1024)
		rng := rand.New(rand.NewPCG(seed, 2))
		g := randomGraph(rng, n, m)
		s1 := g.Simplify()
		s2 := s1.Simplify()
		if s1.NumEdges() > g.NumEdges() {
			return false
		}
		return s1.NumEdges() == s2.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
