package rows

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"csb/internal/dist/task"
	"csb/internal/graph"
	"csb/internal/netflow"
	"csb/internal/replay"
)

// testEdges builds a deterministic mix of TCP and UDP edges with varied
// properties.
func testEdges(n int) []graph.Edge {
	rng := rand.New(rand.NewPCG(1, 2))
	edges := make([]graph.Edge, n)
	for i := range edges {
		proto := graph.ProtoTCP
		state := graph.TCPState(rng.IntN(4))
		if i%3 == 0 {
			proto = graph.ProtoUDP
			state = graph.StateNone
		}
		edges[i] = graph.Edge{
			Src: graph.VertexID(rng.Int64N(1000)),
			Dst: graph.VertexID(rng.Int64N(1000)),
			Props: graph.EdgeProps{
				Protocol: proto,
				State:    state,
				SrcPort:  uint16(rng.IntN(65536)),
				DstPort:  uint16(rng.IntN(65536)),
				Duration: rng.Int64N(100000),
				OutBytes: rng.Int64N(1 << 30),
				InBytes:  rng.Int64N(1 << 30),
				OutPkts:  rng.Int64N(1 << 20),
				InPkts:   rng.Int64N(1 << 20),
			},
		}
	}
	return edges
}

// testGraph puts edges on a graph of 1000 vertices; with addrs, two thirds
// of the vertices get an address and the rest fall back to pseudo-addresses.
func testGraph(edges []graph.Edge, addrs bool) *graph.Graph {
	g := graph.New(1000)
	for _, e := range edges {
		g.AddEdge(e)
		for _, v := range []graph.VertexID{e.Src, e.Dst} {
			if addrs && v%3 != 0 {
				g.SetAddr(v, 0x0a000000|uint32(v)*7919)
			}
		}
	}
	return g
}

var formats = map[string]Format{"tsv": TSV, "ndjson": NDJSON, "csv": CSV}

// checkRange holds each format's remote half to its local half over edges
// [lo, hi): a worker's task.Run of the payload gives the range formatter's
// bytes, and a payload cut short is declined.
func checkRange(t *testing.T, g *graph.Graph, lo, hi int) {
	t.Helper()
	for name, f := range formats {
		payload := f.payload(g, lo, hi)
		got, err := task.Run(f.kind, payload)
		if err != nil {
			t.Fatalf("%s [%d,%d): %v", name, lo, hi, err)
		}
		want := f.rows([]byte("x"), g, lo, hi)
		if want[0] != 'x' || !bytes.Equal(got, want[1:]) {
			t.Fatalf("%s [%d,%d): worker rows differ from the range formatter at %q", name, lo, hi, firstDiff(got, want[1:]))
		}
		if len(payload) > 0 {
			if _, err := task.Run(f.kind, payload[:len(payload)-1]); err == nil {
				t.Fatalf("%s: ragged payload accepted", name)
			}
		}
	}
}

func TestEdgeRecordRoundTrip(t *testing.T) {
	edges := testEdges(50)
	payload := TSV.payload(testGraph(edges, false), 10, 50)
	if len(payload) != 40*graph.EdgeRecordLen {
		t.Fatalf("payload is %d bytes, want %d", len(payload), 40*graph.EdgeRecordLen)
	}
	for i := range edges[10:] {
		if got := graph.DecodeEdgeRecord(payload[i*graph.EdgeRecordLen:]); got != edges[10+i] {
			t.Fatalf("edge %d = %+v, want %+v", 10+i, got, edges[10+i])
		}
	}
}

// TestTSVRowsMatchSequentialWriter: the tsv range formatter over [0, n), or
// over consecutive ranges, gives Graph.AppendEdgeList's bytes.
func TestTSVRowsMatchSequentialWriter(t *testing.T) {
	g := testGraph(testEdges(80), false)
	want := g.AppendEdgeList(nil)
	for _, cut := range []int{0, 1, 37, 80} {
		got := TSV.rows([]byte(TSV.header), g, 0, cut)
		got = TSV.rows(got, g, cut, 80)
		if !bytes.Equal(got, want) {
			t.Fatalf("cut %d: tsv rows differ from the sequential encoder at %q", cut, firstDiff(got, want))
		}
	}
}

// TestCSVRowsMatchSequentialWriter: the csv range formatter gives
// netflow.AppendCSV's bytes for the graph's flows, with and without an
// address table.
func TestCSVRowsMatchSequentialWriter(t *testing.T) {
	for _, addrs := range []bool{false, true} {
		g := testGraph(testEdges(80), addrs)
		want := netflow.AppendCSV(nil, netflow.FlowsFromGraph(g))
		got := CSV.rows([]byte(CSV.header), g, 0, 41)
		got = CSV.rows(got, g, 41, 80)
		if !bytes.Equal(got, want) {
			t.Fatalf("addrs=%v: csv rows differ from the sequential encoder at %q", addrs, firstDiff(got, want))
		}
	}
}

// TestOneFlowLayout pins that the tree has one fixed-width flow record: the
// CSV task payload is the CSBF1 flow section, every field survives it, and
// formatting it on a worker gives the sequential writer's rows.
func TestOneFlowLayout(t *testing.T) {
	g := testGraph(testEdges(40), true)
	flows := netflow.FlowsFromGraph(g)
	payload := CSV.payload(g, 0, len(flows))

	var file bytes.Buffer
	if err := replay.WriteFlowFile(&file, flows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, file.Bytes()[replay.FlowFileHeaderLen:]) {
		t.Fatal("csv task payload differs from the CSBF1 flow section")
	}
	for i := range flows {
		got, err := replay.DecodeFlow(payload[i*replay.FlowRecordLen:])
		if err != nil {
			t.Fatal(err)
		}
		if got != flows[i] {
			t.Fatalf("flow %d = %+v, want %+v", i, got, flows[i])
		}
	}

	out, err := task.Run(CSV.kind, payload)
	if err != nil {
		t.Fatal(err)
	}
	want := netflow.AppendCSV(nil, flows)[len(netflow.CSVHeaderLine):]
	if !bytes.Equal(out, want) {
		t.Fatalf("worker csv rows differ from the sequential encoder at %q", firstDiff(out, want))
	}

	for _, n := range []int{1, replay.FlowRecordLen - 2, replay.FlowRecordLen + 1} {
		if _, err := task.Run(CSV.kind, payload[:n]); err == nil {
			t.Fatalf("%d-byte flow payload accepted", n)
		}
	}
}

// TestKindsRunThroughRegistry drives each registered kind end to end the way
// a worker would: payload bytes in, row bytes out, over the whole graph, an
// inner range and an empty one.
func TestKindsRunThroughRegistry(t *testing.T) {
	g := testGraph(testEdges(30), true)
	for _, r := range [][2]int{{0, 30}, {7, 19}, {12, 12}} {
		checkRange(t, g, r[0], r[1])
	}
}

// FuzzRowKinds: edges decoded from arbitrary bytes, over an arbitrary range,
// format to the same bytes on a worker as through the local range formatter,
// for every kind.
func FuzzRowKinds(f *testing.F) {
	seed := TSV.payload(testGraph(testEdges(5), false), 0, 5)
	f.Add(seed, uint8(1), uint8(4), true)
	f.Add(seed, uint8(0), uint8(5), false)
	f.Add([]byte{}, uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, lo, hi uint8, addrs bool) {
		var edges []graph.Edge
		for ; len(data) >= graph.EdgeRecordLen; data = data[graph.EdgeRecordLen:] {
			e := graph.DecodeEdgeRecord(data)
			e.Src = graph.VertexID(uint64(e.Src) % 1000)
			e.Dst = graph.VertexID(uint64(e.Dst) % 1000)
			edges = append(edges, e)
		}
		n := len(edges)
		a, b := int(lo)%(n+1), int(hi)%(n+1)
		checkRange(t, testGraph(edges, addrs), min(a, b), max(a, b))
	})
}

// firstDiff returns a short window around the first differing byte.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 20
			if lo < 0 {
				lo = 0
			}
			hi := i + 20
			if hi > n {
				hi = n
			}
			return string(a[lo:hi])
		}
	}
	return ""
}
