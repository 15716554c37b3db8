package graph

import (
	"bytes"
	"testing"
)

// benchGraph builds a deterministic property graph for writer benchmarks.
func benchGraph(b *testing.B, edges int) *Graph {
	b.Helper()
	g := NewWithCapacity(int64(edges/4+2), int64(edges))
	for i := 0; i < edges; i++ {
		g.AddEdge(Edge{
			Src: VertexID(i % (edges / 4)), Dst: VertexID((i + 1) % (edges / 4)),
			Props: EdgeProps{
				Protocol: ProtoTCP, State: StateSF,
				SrcPort: uint16(1024 + i%40000), DstPort: uint16(1 + i%1000),
				Duration: int64(i % 5000), OutBytes: int64(100 + i%1400),
				InBytes: int64(40 + i%400), OutPkts: int64(1 + i%10), InPkts: int64(1 + i%8),
			},
		})
	}
	return g
}

func BenchmarkAppendEdgeList(b *testing.B) {
	g := benchGraph(b, 20_000)
	buf := make([]byte, 0, len(EdgeListHeader)+g.cols.Len()*EdgeListRowBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.AppendEdgeList(buf[:0])
	}
}

// BenchmarkWriteCSBG is the csbg encode of a 500k-edge job as BuildArtifact
// does it: into a fresh bytes.Buffer.
func BenchmarkWriteCSBG(b *testing.B) {
	g := benchGraph(b, 500_000)
	b.ReportAllocs()
	b.SetBytes(int64(28 + edgeRecordSize*g.NumEdges()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
