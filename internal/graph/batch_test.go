package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// randomEdges builds m random in-range edges over n vertices.
func randomEdges(rng *rand.Rand, n int64, m int) []Edge {
	es := make([]Edge, m)
	for i := range es {
		es[i] = Edge{
			Src: VertexID(rng.Int64N(n)),
			Dst: VertexID(rng.Int64N(n)),
			Props: EdgeProps{
				Protocol: Protocol(rng.IntN(4)),
				State:    TCPState(rng.IntN(9)),
				SrcPort:  uint16(rng.IntN(65536)),
				DstPort:  uint16(rng.IntN(65536)),
				Duration: rng.Int64N(1e7),
				OutBytes: rng.Int64N(1e9),
				InBytes:  rng.Int64N(1e9),
				OutPkts:  rng.Int64N(1e5),
				InPkts:   rng.Int64N(1e5),
			},
		}
	}
	return es
}

// Property: appending edges one at a time and reading them back through every
// accessor (Edge, SrcID/DstID, the per-column accessors, Props, Edges) is the
// identity.
func TestEdgeBatchAppendIterateRoundTrip(t *testing.T) {
	f := func(seed uint64, mRaw uint16) bool {
		m := int(mRaw%512) + 1
		rng := rand.New(rand.NewPCG(seed, 3))
		in := randomEdges(rng, 1<<20, m)
		b := NewEdgeBatch(0)
		for _, e := range in {
			b.Append(e)
		}
		if b.Len() != m {
			return false
		}
		for i, want := range in {
			if b.Edge(i) != want {
				return false
			}
			if b.SrcID(i) != want.Src || b.DstID(i) != want.Dst {
				return false
			}
			if b.Protocol(i) != want.Props.Protocol || b.State(i) != want.Props.State {
				return false
			}
			if b.SrcPort(i) != want.Props.SrcPort || b.DstPort(i) != want.Props.DstPort {
				return false
			}
			if b.Duration(i) != want.Props.Duration ||
				b.OutBytes(i) != want.Props.OutBytes || b.InBytes(i) != want.Props.InBytes ||
				b.OutPkts(i) != want.Props.OutPkts || b.InPkts(i) != want.Props.InPkts {
				return false
			}
			if b.Props(i) != want.Props {
				return false
			}
		}
		out := b.Edges()
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every bulk-append path — AppendEdges, AppendBatch — lands the
// same columns as per-edge Append.
func TestEdgeBatchBulkAppendEquivalence(t *testing.T) {
	f := func(seed uint64, mRaw uint16) bool {
		m := int(mRaw%512) + 2
		rng := rand.New(rand.NewPCG(seed, 4))
		in := randomEdges(rng, 1<<16, m)

		ref := NewEdgeBatch(m)
		for _, e := range in {
			ref.Append(e)
		}

		viaEdges := NewEdgeBatch(0)
		viaEdges.AppendEdges(in)

		viaBatch := NewEdgeBatch(0)
		viaBatch.AppendBatch(ref)

		for _, b := range []*EdgeBatch{viaEdges, viaBatch} {
			if b.Len() != ref.Len() {
				return false
			}
			for i := 0; i < m; i++ {
				if b.Edge(i) != ref.Edge(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Truncate keeps the prefix and the capacity; Reset then re-append
// round-trips fresh data with no residue from the previous fill.
func TestEdgeBatchTruncateResetRoundTrip(t *testing.T) {
	f := func(seed uint64, mRaw uint16, keepRaw uint16) bool {
		m := int(mRaw%512) + 1
		keep := int(keepRaw) % (m + 1)
		rng := rand.New(rand.NewPCG(seed, 5))
		first := randomEdges(rng, 1<<16, m)
		second := randomEdges(rng, 1<<16, m)

		b := NewEdgeBatch(0)
		b.AppendEdges(first)
		capBefore := b.Cap()
		b.Truncate(keep)
		if b.Len() != keep || b.Cap() != capBefore {
			return false
		}
		for i := 0; i < keep; i++ {
			if b.Edge(i) != first[i] {
				return false
			}
		}
		b.Reset()
		if b.Len() != 0 || b.Cap() != capBefore {
			return false
		}
		b.AppendEdges(second)
		for i := range second {
			if b.Edge(i) != second[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: data handed out before PutBatch — materialized Edges, Edge and
// Props values — is never aliased by the pool. A later borrower overwriting
// the recycled columns must not be visible through the earlier snapshot.
func TestEdgeBatchPooledReuseNeverAliases(t *testing.T) {
	f := func(seed uint64, mRaw uint16) bool {
		m := int(mRaw%256) + 1
		rng := rand.New(rand.NewPCG(seed, 6))
		first := randomEdges(rng, 1<<16, m)
		second := randomEdges(rng, 1<<16, m)

		b1 := GetBatch(m)
		if b1.Len() != 0 {
			return false // pool must hand out reset batches
		}
		b1.AppendEdges(first)
		snapshot := b1.Edges() // the documented way to keep data past PutBatch
		edge0 := b1.Edge(0)
		props0 := b1.Props(0)
		PutBatch(b1)

		// Borrow repeatedly so the recycled storage almost surely comes back,
		// and overwrite it with different data.
		for round := 0; round < 4; round++ {
			b2 := GetBatch(m)
			if b2.Len() != 0 {
				return false
			}
			b2.AppendEdges(second)
			PutBatch(b2)
		}

		for i := range first {
			if snapshot[i] != first[i] {
				return false
			}
		}
		return edge0 == first[0] && props0 == first[0].Props
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeBatchCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 7))
	in := randomEdges(rng, 1024, 64)
	b := NewEdgeBatch(0)
	b.AppendEdges(in)
	c := b.Clone()
	c.SetEdge(0, Edge{Src: 1, Dst: 2})
	c.Append(Edge{Src: 3, Dst: 4})
	if b.Len() != len(in) {
		t.Fatalf("clone append changed original length: %d", b.Len())
	}
	if b.Edge(0) != in[0] {
		t.Fatalf("clone SetEdge mutated original edge 0")
	}
}

func TestEdgeBatchRejectsOversizedVertexID(t *testing.T) {
	for _, e := range []Edge{{Src: MaxBatchVertexID + 1}, {Src: 0, Dst: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append(%v) did not panic", e)
				}
			}()
			NewEdgeBatch(0).Append(e)
		}()
	}
}

// BenchmarkColumnarScan measures the structural + attribute scans over the
// columnar store — the access pattern behind degree counting and the eval
// marginals. It must run allocation-free: the scan never materializes Edge
// structs.
func BenchmarkColumnarScan(b *testing.B) {
	g := benchGraph(b, 100_000)
	cols := g.Cols()
	n := cols.Len()
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var endpoints, volume int64
		for j := 0; j < n; j++ {
			endpoints += int64(cols.SrcID(j)) + int64(cols.DstID(j))
		}
		for j := 0; j < n; j++ {
			volume += cols.OutBytes(j) + cols.InBytes(j)
		}
		sink = endpoints + volume
	}
	_ = sink
}
