package ids

import (
	"slices"
	"sort"

	"csb/internal/graph"
)

// AggregateGraph builds the Table I traffic-pattern records directly from a
// property graph, exploiting the graph structure the way Section IV
// motivates: "property-graphs can improve the performance in the processing
// of aggregated packet data". Grouping flows by detection IP is grouping
// edges by head or tail vertex, so the aggregation runs over dense
// vertex-indexed arrays with no hash lookups — unlike AggregatePatterns,
// which must hash every flow's addresses.
//
// Flag counters are reconstructed from edge state exactly as
// netflow.FlowsFromGraph does, so both aggregation paths produce identical
// patterns for the same graph (see TestAggregateGraphMatchesFlowPath).
func AggregateGraph(g *graph.Graph) (byDst, bySrc []Pattern) {
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	addrOf := func(v graph.VertexID) uint32 {
		if g.HasAddrs() {
			if a := g.Addr(v); a != 0 {
				return a
			}
		}
		return uint32(v) + 1
	}

	cols := g.Cols()
	m := int64(cols.Len())

	// CSR-style layout: one counting pass, then fill single backing arrays,
	// so the whole aggregation performs O(1) allocations regardless of |E|.
	// The counting pass touches only the 4-byte endpoint column it keys on.
	side := func(byDstSide bool) []Pattern {
		counts := make([]int64, n+1)
		for i := 0; i < int(m); i++ {
			v := cols.SrcID(i)
			if byDstSide {
				v = cols.DstID(i)
			}
			counts[v+1]++
		}
		offsets := counts // prefix sums in place
		for v := int64(1); v <= n; v++ {
			offsets[v] += offsets[v-1]
		}
		peers := make([]uint32, m)
		ports := make([]uint16, m)
		cursor := make([]int64, n)
		pats := make([]Pattern, n)
		for i := 0; i < int(m); i++ {
			e := cols.Edge(i)
			v, peer := e.Src, e.Dst
			if byDstSide {
				v, peer = e.Dst, e.Src
			}
			p := &pats[v]
			p.NFlows++
			p.SumFlowSize += e.Props.OutBytes + e.Props.InBytes
			p.SumPackets += e.Props.OutPkts + e.Props.InPkts
			syn, ack := flagCounts(&e)
			p.SYN += syn
			p.ACK += ack
			at := offsets[v] + cursor[v]
			cursor[v]++
			peers[at] = addrOf(peer)
			ports[at] = e.Props.DstPort
		}
		out := make([]Pattern, 0, n)
		for v := int64(0); v < n; v++ {
			p := &pats[v]
			if p.NFlows == 0 {
				continue
			}
			p.IP = addrOf(graph.VertexID(v))
			p.ByDst = byDstSide
			p.DistinctPeers = distinctU32(peers[offsets[v] : offsets[v]+cursor[v]])
			p.DistinctPorts = distinctU16(ports[offsets[v] : offsets[v]+cursor[v]])
			out = append(out, *p)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].IP < out[j].IP })
		return out
	}
	return side(true), side(false)
}

// flagCounts reconstructs SYN/ACK counters from an edge's TCP state using
// the same rules as netflow.FlowsFromGraph.
func flagCounts(e *graph.Edge) (syn, ack int64) {
	if e.Props.Protocol != graph.ProtoTCP {
		return 0, 0
	}
	switch e.Props.State {
	case graph.StateS0, graph.StateSH:
		syn = e.Props.OutPkts
	case graph.StateOTH:
		syn = 0
	default:
		syn = 2
	}
	if e.Props.State != graph.StateS0 && e.Props.State != graph.StateSH && e.Props.State != graph.StateOTH {
		ack = e.Props.OutPkts + e.Props.InPkts - 1
		if ack < 0 {
			ack = 0
		}
	}
	return syn, ack
}

func distinctU32(xs []uint32) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	var n int64 = 1
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[i-1] {
			n++
		}
	}
	return n
}

func distinctU16(xs []uint16) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	var n int64 = 1
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[i-1] {
			n++
		}
	}
	return n
}

// DetectGraphDirect runs the Figure 4 decision flow over graph-side
// aggregation, avoiding the flow-record materialization of
// Detect(netflow.FlowsFromGraph(g)). Results are identical; this is the fast
// path for synthetic datasets.
func (d *Detector) DetectGraphDirect(g *graph.Graph) []Alert {
	byDst, bySrc := AggregateGraph(g)
	return d.classify(nil, byDst, bySrc)
}
