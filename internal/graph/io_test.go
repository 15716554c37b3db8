package graph

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	g := randomGraph(rng, 20, 100)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for i := range g.EdgeSlice() {
		if g.EdgeSlice()[i] != got.EdgeSlice()[i] {
			t.Fatalf("edge %d mismatch: %+v vs %+v", i, g.EdgeSlice()[i], got.EdgeSlice()[i])
		}
	}
}

func TestWriteReadAddrs(t *testing.T) {
	g := New(3)
	g.SetAddr(0, 0xc0a80001)
	g.SetAddr(2, 0x0a000001)
	g.AddEdge(Edge{Src: 0, Dst: 2})
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !got.HasAddrs() {
		t.Fatal("address table lost in round trip")
	}
	if got.Addr(0) != 0xc0a80001 || got.Addr(1) != 0 || got.Addr(2) != 0x0a000001 {
		t.Fatalf("addresses wrong after round trip: %x %x %x", got.Addr(0), got.Addr(1), got.Addr(2))
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOPE....................")); err == nil {
		t.Fatal("Read accepted bad magic")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	g := New(2)
	g.AddEdge(Edge{Src: 0, Dst: 1})
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	b := buf.Bytes()
	for _, cut := range []int{3, 10, 27, len(b) - 1} {
		if cut >= len(b) {
			continue
		}
		if _, err := Read(bytes.NewReader(b[:cut])); err == nil {
			t.Errorf("Read accepted truncation at %d bytes", cut)
		}
	}
}

func TestReadEmptyGraph(t *testing.T) {
	g := New(0)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumVertices() != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty graph round trip: %d/%d", got.NumVertices(), got.NumEdges())
	}
}

func TestAppendEdgeList(t *testing.T) {
	g := New(2)
	g.AddEdge(Edge{Src: 0, Dst: 1, Props: EdgeProps{
		Protocol: ProtoTCP, State: StateSF, SrcPort: 1234, DstPort: 80,
		Duration: 1500, OutBytes: 10, InBytes: 20, OutPkts: 3, InPkts: 4,
	}})
	out := g.AppendEdgeList([]byte("kept"))
	if !strings.HasPrefix(string(out), "kept"+EdgeListHeader) {
		t.Fatalf("AppendEdgeList dropped dst or the header: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(string(out[len("kept"):])), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + 1 edge", len(lines))
	}
	if !strings.Contains(lines[1], "tcp") || !strings.Contains(lines[1], "SF") {
		t.Fatalf("edge line missing fields: %q", lines[1])
	}
}

func TestProtocolStateStrings(t *testing.T) {
	cases := map[string]string{
		ProtoTCP.String():     "tcp",
		ProtoUDP.String():     "udp",
		ProtoICMP.String():    "icmp",
		ProtoUnknown.String(): "unknown",
		StateS0.String():      "S0",
		StateSF.String():      "SF",
		StateREJ.String():     "REJ",
		StateNone.String():    "-",
		StateOTH.String():     "OTH",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
