package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// writeEdgeListReference is the fmt.Fprintf implementation AppendEdgeList
// replaced; the append-style encoder must match it byte for byte.
func writeEdgeListReference(buf *bytes.Buffer, g *Graph) error {
	if _, err := fmt.Fprintln(buf, "src\tdst\tproto\tsrc_port\tdst_port\tduration_ms\tout_bytes\tin_bytes\tout_pkts\tin_pkts\tstate"); err != nil {
		return err
	}
	for i, n := 0, g.cols.Len(); i < n; i++ {
		e := g.cols.Edge(i)
		_, err := fmt.Fprintf(buf, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			e.Src, e.Dst, e.Props.Protocol, e.Props.SrcPort, e.Props.DstPort,
			e.Props.Duration, e.Props.OutBytes, e.Props.InBytes, e.Props.OutPkts, e.Props.InPkts, e.Props.State)
		if err != nil {
			return err
		}
	}
	return nil
}

func TestAppendEdgeListMatchesFprintf(t *testing.T) {
	rng := uint64(0x1234_5678_9abc_def1)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	g := New(400)
	for i := 0; i < 800; i++ {
		g.AddEdge(Edge{
			Src: VertexID(next() % 400),
			Dst: VertexID(next() % 400),
			Props: EdgeProps{
				Protocol: Protocol(next() % 4),
				State:    TCPState(next() % 9),
				SrcPort:  uint16(next()),
				DstPort:  uint16(next()),
				Duration: int64(next() % 1e7),
				OutBytes: int64(next() % 1e9),
				InBytes:  int64(next() % 1e9),
				OutPkts:  int64(next() % 1e5),
				InPkts:   int64(next() % 1e5),
			},
		})
	}
	// Zero-valued edge exercises the "-"/"unknown" token paths.
	g.AddEdge(Edge{})
	got := g.AppendEdgeList(nil)
	var want bytes.Buffer
	if err := writeEdgeListReference(&want, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("AppendEdgeList output diverged from fmt reference\n got %d bytes\nwant %d bytes", len(got), want.Len())
	}
}

// plainWriter hides bytes.Buffer's Grow, so Write takes its no-reservation
// route.
type plainWriter struct{ buf bytes.Buffer }

func (p *plainWriter) Write(b []byte) (int, error) { return p.buf.Write(b) }

// TestWriteMatchesRecordReference holds the chunked column encoder to the
// per-record one: header, address table, then AppendEdgeRecord of every
// edge, across chunk boundaries and with a partial last chunk.
func TestWriteMatchesRecordReference(t *testing.T) {
	for _, edges := range []int{0, 1, writeChunkEdges, 2*writeChunkEdges + 37} {
		g := New(50)
		g.SetAddr(3, 0x0a000003)
		for i := 0; i < edges; i++ {
			g.AddEdge(Edge{
				Src: VertexID(i % 50), Dst: VertexID((i * 7) % 50),
				Props: EdgeProps{
					Protocol: Protocol(i % 4), State: TCPState(i % 9),
					SrcPort: uint16(i * 31), DstPort: uint16(i * 17),
					Duration: int64(i) << 20, OutBytes: int64(i) * 1e9, InBytes: -int64(i),
					OutPkts: int64(i) + 1, InPkts: int64(i) ^ 0x55,
				},
			})
		}
		want := append([]byte(nil), magic[:]...)
		want = binary.LittleEndian.AppendUint32(want, formatVersion)
		want = binary.LittleEndian.AppendUint32(want, flagAddrs)
		want = binary.LittleEndian.AppendUint64(want, 50)
		want = binary.LittleEndian.AppendUint64(want, uint64(edges))
		for v := 0; v < 50; v++ {
			want = binary.LittleEndian.AppendUint32(want, g.Addr(VertexID(v)))
		}
		for i := 0; i < edges; i++ {
			e := g.EdgeAt(i)
			want = AppendEdgeRecord(want, &e)
		}
		var grown bytes.Buffer
		if err := g.Write(&grown); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(grown.Bytes(), want) {
			t.Fatalf("%d edges: Write into a bytes.Buffer diverged from the record reference", edges)
		}
		// The reservation is exact: the buffer was sized once, not doubled.
		if grown.Cap() > len(want)+len(want)/8+64 {
			t.Errorf("%d edges: buffer capacity %d for %d bytes", edges, grown.Cap(), len(want))
		}
		var plain plainWriter
		if err := g.Write(&plain); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.buf.Bytes(), want) {
			t.Fatalf("%d edges: Write into a plain writer diverged from the record reference", edges)
		}
	}
}
