package netflow

import (
	"fmt"

	"csb/internal/graph"
)

// BuildGraph maps flow records onto a directed property multigraph: each
// distinct host address becomes a vertex (ID assigned in order of first
// appearance, recorded in the graph's address table) and each flow becomes
// an edge from its originator to its responder carrying the Netflow
// attributes. This is the "map Netflow data to a property-graph" step of
// Figure 1.
func BuildGraph(flows []Flow) *graph.Graph {
	ids := make(map[uint32]graph.VertexID, 1024)
	var addrs []uint32
	vertexOf := func(ip uint32) graph.VertexID {
		if v, ok := ids[ip]; ok {
			return v
		}
		v := graph.VertexID(len(addrs))
		ids[ip] = v
		addrs = append(addrs, ip)
		return v
	}
	type rawEdge struct {
		src, dst graph.VertexID
		props    graph.EdgeProps
	}
	raw := make([]rawEdge, len(flows))
	for i := range flows {
		f := &flows[i]
		raw[i] = rawEdge{src: vertexOf(f.SrcIP), dst: vertexOf(f.DstIP), props: f.Props()}
	}
	g := graph.NewWithCapacity(int64(len(addrs)), int64(len(flows)))
	for i, ip := range addrs {
		g.SetAddr(graph.VertexID(i), ip)
	}
	for _, e := range raw {
		g.AddEdge(graph.Edge{Src: e.src, Dst: e.dst, Props: e.props})
	}
	return g
}

// FlowsFromGraph converts every property-graph edge back into a flow record,
// in edge order (EdgeFlow per edge). This is the bridge that lets the anomaly
// detector train on and stream synthetic property graphs.
func FlowsFromGraph(g *graph.Graph) []Flow {
	flows := make([]Flow, g.NumEdges())
	for i := range flows {
		EdgeFlow(&flows[i], g, i)
	}
	return flows
}

// EdgeFlow projects edge i of g into f, straight from the graph's columns.
// Every field of f is overwritten, so callers reuse one Flow or fill a slice
// element in place. Addresses come from the graph's address table; a vertex
// without one stands in as the 1-based pseudo-address v+1. Flag counters
// are reconstructed conservatively from the TCP state: flows whose state
// implies a handshake contribute SYN counts, and ACK counts are approximated
// by the packet count.
func EdgeFlow(f *Flow, g *graph.Graph, i int) {
	addrOf := func(v graph.VertexID) uint32 {
		if a := g.Addr(v); a != 0 {
			return a
		}
		return uint32(v) + 1
	}
	e := g.Cols().Edge(i)
	*f = Flow{
		SrcIP: addrOf(e.Src), DstIP: addrOf(e.Dst),
		Protocol: e.Props.Protocol,
		SrcPort:  e.Props.SrcPort, DstPort: e.Props.DstPort,
		StartMicros: 0, EndMicros: e.Props.Duration * 1000,
		OutBytes: e.Props.OutBytes, InBytes: e.Props.InBytes,
		OutPkts: e.Props.OutPkts, InPkts: e.Props.InPkts,
		State: e.Props.State,
	}
	if f.Protocol == graph.ProtoTCP {
		switch f.State {
		case graph.StateS0, graph.StateSH:
			f.SYNCount = f.OutPkts // unanswered SYN retries
		case graph.StateOTH: // midstream, no handshake seen: no flag counts
		default:
			f.SYNCount = 2 // SYN + SYN-ACK
			f.ACKCount = max(f.TotalPkts()-1, 0)
		}
	}
}

// Stats summarizes a flow set for reporting.
type Stats struct {
	Flows     int
	Hosts     int
	TCP       int
	UDP       int
	ICMP      int
	Bytes     int64
	Packets   int64
	StartsMin int64
	EndsMax   int64
}

// Summarize computes aggregate statistics of a flow set.
func Summarize(flows []Flow) Stats {
	s := Stats{Flows: len(flows)}
	hosts := make(map[uint32]struct{}, 1024)
	for i := range flows {
		f := &flows[i]
		hosts[f.SrcIP] = struct{}{}
		hosts[f.DstIP] = struct{}{}
		switch f.Protocol {
		case graph.ProtoTCP:
			s.TCP++
		case graph.ProtoUDP:
			s.UDP++
		case graph.ProtoICMP:
			s.ICMP++
		}
		s.Bytes += f.TotalBytes()
		s.Packets += f.TotalPkts()
		if s.StartsMin == 0 || f.StartMicros < s.StartsMin {
			s.StartsMin = f.StartMicros
		}
		if f.EndMicros > s.EndsMax {
			s.EndsMax = f.EndMicros
		}
	}
	s.Hosts = len(hosts)
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("flows=%d hosts=%d tcp=%d udp=%d icmp=%d bytes=%d packets=%d",
		s.Flows, s.Hosts, s.TCP, s.UDP, s.ICMP, s.Bytes, s.Packets)
}
