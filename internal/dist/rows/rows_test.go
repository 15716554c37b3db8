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

func TestEdgeRecordRoundTrip(t *testing.T) {
	edges := testEdges(50)
	payload := EncodeEdges(edges)
	if len(payload) != len(edges)*graph.EdgeRecordLen {
		t.Fatalf("payload is %d bytes, want %d", len(payload), len(edges)*graph.EdgeRecordLen)
	}
	for i := range edges {
		if got := graph.DecodeEdgeRecord(payload[i*graph.EdgeRecordLen:]); got != edges[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got, edges[i])
		}
	}
	for _, run := range []func([]byte) ([]byte, error){runTSV, runNDJSON} {
		if _, err := run([]byte{1, 2, 3}); err == nil {
			t.Fatal("ragged edge payload accepted")
		}
	}
}

func TestTSVRowsMatchSequentialWriter(t *testing.T) {
	edges := testEdges(80)
	g := graph.New(1000)
	if err := g.AddEdges(edges); err != nil {
		t.Fatal(err)
	}
	want := g.AppendEdgeList(nil)
	got := append([]byte(graph.EdgeListHeader), TSVRows(edges)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed tsv differs from sequential encoder at %q", firstDiff(got, want))
	}
}

func TestCSVRowsMatchSequentialWriter(t *testing.T) {
	edges := testEdges(80)
	g := graph.New(1000)
	if err := g.AddEdges(edges); err != nil {
		t.Fatal(err)
	}
	flows := netflow.FlowsFromGraph(g)
	want := netflow.AppendCSV(nil, flows)
	got := append([]byte(netflow.CSVHeaderLine), CSVRows(flows)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed csv differs from sequential encoder at %q", firstDiff(got, want))
	}
}

// TestOneFlowLayout pins that the tree has one fixed-width flow record: the
// CSV task payload is the CSBF1 flow section, every field survives it, and
// formatting it on a worker gives the sequential writer's rows.
func TestOneFlowLayout(t *testing.T) {
	g := graph.New(1000)
	if err := g.AddEdges(testEdges(40)); err != nil {
		t.Fatal(err)
	}
	flows := netflow.FlowsFromGraph(g)
	payload := replay.EncodeFlows(flows)

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

	out, err := task.Run(CSVKind, payload)
	if err != nil {
		t.Fatal(err)
	}
	want := netflow.AppendCSV(nil, flows)[len(netflow.CSVHeaderLine):]
	if !bytes.Equal(out, want) {
		t.Fatalf("worker csv rows differ from the sequential encoder at %q", firstDiff(out, want))
	}
	if !bytes.Equal(out, CSVRows(flows)) {
		t.Fatal("worker csv rows differ from the local closure's")
	}

	for _, n := range []int{1, replay.FlowRecordLen - 2, replay.FlowRecordLen + 1} {
		if _, err := task.Run(CSVKind, payload[:n]); err == nil {
			t.Fatalf("%d-byte flow payload accepted", n)
		}
	}
}

// TestKindsRunThroughRegistry drives each registered kind end to end the way
// a worker would: payload bytes in, row bytes out.
func TestKindsRunThroughRegistry(t *testing.T) {
	edges := testEdges(30)
	out, err := task.Run(TSVKind, EncodeEdges(edges))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, TSVRows(edges)) {
		t.Fatal("registry tsv differs from direct TSVRows")
	}
	out, err = task.Run(NDJSONKind, EncodeEdges(edges))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, NDJSONRows(edges)) {
		t.Fatal("registry ndjson differs from direct NDJSONRows")
	}
	g := graph.New(1000)
	if err := g.AddEdges(edges); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, AppendNDJSON(nil, g.Cols())) {
		t.Fatal("registry ndjson differs from the sequential encoder")
	}
	if _, err := task.Run(TSVKind, []byte{1}); err == nil {
		t.Fatal("ragged payload ran")
	}
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
