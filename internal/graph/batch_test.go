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

func appendAll(b *EdgeBatch, es []Edge) {
	for _, e := range es {
		b.Append(e)
	}
}

// Property: appending edges one at a time and reading them back through every
// accessor (Edge, SrcID/DstID, the per-column accessors, Props) is the
// identity.
func TestEdgeBatchAppendIterateRoundTrip(t *testing.T) {
	f := func(seed uint64, mRaw uint16) bool {
		m := int(mRaw%512) + 1
		rng := rand.New(rand.NewPCG(seed, 3))
		in := randomEdges(rng, 1<<20, m)
		b := new(EdgeBatch)
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Truncate keeps the prefix and the capacity; truncating to zero
// then re-appending round-trips fresh data with no residue from the previous
// fill.
func TestEdgeBatchTruncateResetRoundTrip(t *testing.T) {
	f := func(seed uint64, mRaw uint16, keepRaw uint16) bool {
		m := int(mRaw%512) + 1
		keep := int(keepRaw) % (m + 1)
		rng := rand.New(rand.NewPCG(seed, 5))
		first := randomEdges(rng, 1<<16, m)
		second := randomEdges(rng, 1<<16, m)

		b := new(EdgeBatch)
		appendAll(b, first)
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
		b.Truncate(0)
		if b.Len() != 0 || b.Cap() != capBefore {
			return false
		}
		appendAll(b, second)
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

func TestEdgeBatchRejectsOversizedVertexID(t *testing.T) {
	for _, e := range []Edge{{Src: MaxBatchVertexID + 1}, {Src: 0, Dst: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append(%v) did not panic", e)
				}
			}()
			new(EdgeBatch).Append(e)
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
