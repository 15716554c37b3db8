package netflow

import (
	"strings"
	"testing"

	"csb/internal/graph"
	"csb/internal/pcap"
)

func sampleFlows() []Flow {
	return []Flow{
		{SrcIP: hostA, DstIP: hostB, Protocol: graph.ProtoTCP, SrcPort: 40000, DstPort: 80,
			StartMicros: 0, EndMicros: 7000, OutBytes: 660, InBytes: 1480, OutPkts: 5, InPkts: 3,
			State: graph.StateSF, SYNCount: 2, ACKCount: 7},
		{SrcIP: hostB, DstIP: hostA, Protocol: graph.ProtoUDP, SrcPort: 53, DstPort: 5000,
			StartMicros: 1000, EndMicros: 2000, OutBytes: 70, InBytes: 0, OutPkts: 1, InPkts: 0},
		{SrcIP: hostA, DstIP: 0x0a000003, Protocol: graph.ProtoTCP, SrcPort: 40001, DstPort: 443,
			StartMicros: 5000, EndMicros: 5000, OutBytes: 40, InBytes: 0, OutPkts: 1, InPkts: 0,
			State: graph.StateS0, SYNCount: 1},
	}
}

func TestBuildGraph(t *testing.T) {
	g := BuildGraph(sampleFlows())
	if g.NumVertices() != 3 {
		t.Fatalf("vertices = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasAddrs() {
		t.Fatal("graph missing address table")
	}
	// First-appearance order: hostA=0, hostB=1, hostC=2.
	if g.Addr(0) != hostA || g.Addr(1) != hostB || g.Addr(2) != 0x0a000003 {
		t.Fatalf("addresses wrong: %x %x %x", g.Addr(0), g.Addr(1), g.Addr(2))
	}
	e := g.Cols().Edge(0)
	if e.Src != 0 || e.Dst != 1 {
		t.Errorf("edge 0 endpoints %d->%d, want 0->1", e.Src, e.Dst)
	}
	if e.Props.Duration != 7 || e.Props.OutBytes != 660 || e.Props.State != graph.StateSF {
		t.Errorf("edge 0 props wrong: %+v", e.Props)
	}
}

func TestBuildGraphEmpty(t *testing.T) {
	g := BuildGraph(nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty build: %d/%d", g.NumVertices(), g.NumEdges())
	}
}

func TestBuildGraphMultiEdges(t *testing.T) {
	flows := []Flow{
		{SrcIP: hostA, DstIP: hostB, Protocol: graph.ProtoTCP},
		{SrcIP: hostA, DstIP: hostB, Protocol: graph.ProtoTCP},
	}
	g := BuildGraph(flows)
	if g.NumVertices() != 2 || g.NumEdges() != 2 {
		t.Fatalf("multi-edge build: %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
}

func TestFlowsFromGraphRoundTrip(t *testing.T) {
	in := sampleFlows()
	g := BuildGraph(in)
	out := FlowsFromGraph(g)
	if len(out) != len(in) {
		t.Fatalf("round trip: %d flows, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].SrcIP != in[i].SrcIP || out[i].DstIP != in[i].DstIP {
			t.Errorf("flow %d endpoints differ", i)
		}
		if out[i].Protocol != in[i].Protocol || out[i].State != in[i].State {
			t.Errorf("flow %d proto/state differ", i)
		}
		if out[i].OutBytes != in[i].OutBytes || out[i].InPkts != in[i].InPkts {
			t.Errorf("flow %d counters differ", i)
		}
		if out[i].DurationMs() != in[i].DurationMs() {
			t.Errorf("flow %d duration %d, want %d", i, out[i].DurationMs(), in[i].DurationMs())
		}
	}
	// SYN reconstruction: SF flow gets 2, S0 flow gets its packet count.
	if out[0].SYNCount != 2 {
		t.Errorf("SF flow SYNCount = %d, want 2", out[0].SYNCount)
	}
	if out[2].SYNCount != 1 {
		t.Errorf("S0 flow SYNCount = %d, want 1 (OutPkts)", out[2].SYNCount)
	}
}

func TestFlowsFromGraphWithoutAddrs(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(graph.Edge{Src: 0, Dst: 1, Props: graph.EdgeProps{Protocol: graph.ProtoUDP}})
	flows := FlowsFromGraph(g)
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	if flows[0].SrcIP != 1 || flows[0].DstIP != 2 {
		t.Errorf("pseudo-addresses = %d/%d, want 1/2", flows[0].SrcIP, flows[0].DstIP)
	}
}

func TestSummarizeAndString(t *testing.T) {
	s := Summarize(sampleFlows())
	if s.Flows != 3 || s.Hosts != 3 || s.TCP != 2 || s.UDP != 1 || s.ICMP != 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Bytes != 660+1480+70+40 {
		t.Errorf("bytes = %d", s.Bytes)
	}
	if !strings.Contains(s.String(), "flows=3") {
		t.Errorf("String = %q", s.String())
	}
}

func TestDurationNonNegative(t *testing.T) {
	f := Flow{StartMicros: 5000, EndMicros: 1000}
	if f.DurationMs() != 0 {
		t.Fatalf("negative duration not clamped: %d", f.DurationMs())
	}
}

func TestEndToEndTraceToGraph(t *testing.T) {
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(30, 500, 21))
	if err != nil {
		t.Fatal(err)
	}
	g := BuildGraph(Assemble(pkts, 0))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 30 {
		t.Errorf("vertices = %d, want 30", g.NumVertices())
	}
	if g.NumEdges() < 450 {
		t.Errorf("edges = %d, want ~500", g.NumEdges())
	}
	// Every edge must carry plausible Netflow properties.
	for i := range g.Cols().Len() {
		e := g.Cols().Edge(i)
		if e.Props.Protocol == graph.ProtoUnknown {
			t.Fatal("edge with unknown protocol")
		}
		if e.Props.OutPkts == 0 && e.Props.InPkts == 0 {
			t.Fatal("edge with no packets")
		}
	}
}
