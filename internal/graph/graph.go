// Package graph implements the directed property multigraph used throughout
// csb: G = (V, E, Dv, De) where V is a dense set of vertices, E is a multiset
// of directed edges, Dv carries per-vertex data (the vertex ID and, for graphs
// built from network traces, the host address) and De carries the Netflow
// attributes of each edge.
//
// The representation is a compact edge list. The edge list (rather than an
// adjacency structure) is the central data structure of the parallel
// Barabási-Albert algorithm: the number of occurrences of a vertex in the
// edge list equals its degree, so sampling the list uniformly realizes
// preferential attachment in constant time per edge.
package graph

import (
	"errors"
	"fmt"
)

// VertexID identifies a vertex. Vertices are dense: a graph with n vertices
// has IDs 0..n-1.
type VertexID int64

// Protocol is the transport protocol of a flow edge.
type Protocol uint8

// Supported transport protocols.
const (
	ProtoUnknown Protocol = iota
	ProtoTCP
	ProtoUDP
	ProtoICMP
)

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoICMP:
		return "icmp"
	default:
		return "unknown"
	}
}

// TCPState is the Bro-style connection state of a TCP flow edge. It is
// meaningful only when the edge protocol is ProtoTCP.
type TCPState uint8

// Bro-style TCP connection states.
const (
	StateNone TCPState = iota // not a TCP connection
	StateS0                   // connection attempt seen, no reply
	StateS1                   // connection established, not terminated
	StateSF                   // normal establishment and termination
	StateREJ                  // connection attempt rejected
	StateRSTO                 // established, originator aborted
	StateRSTR                 // established, responder aborted
	StateSH                   // originator sent SYN followed by FIN, no reply
	StateOTH                  // midstream traffic, no SYN
)

// String returns the Bro-style state mnemonic.
func (s TCPState) String() string {
	switch s {
	case StateS0:
		return "S0"
	case StateS1:
		return "S1"
	case StateSF:
		return "SF"
	case StateREJ:
		return "REJ"
	case StateRSTO:
		return "RSTO"
	case StateRSTR:
		return "RSTR"
	case StateSH:
		return "SH"
	case StateOTH:
		return "OTH"
	default:
		return "-"
	}
}

// EdgeProps holds the Netflow attributes De associated with a flow edge,
// exactly the attribute set of Section III of the paper.
type EdgeProps struct {
	Protocol Protocol // transport protocol (TCP or UDP; ICMP for completeness)
	State    TCPState // TCP connection state; StateNone for non-TCP
	SrcPort  uint16   // source port of the data stream
	DstPort  uint16   // destination port of the data stream
	Duration int64    // duration of the stream in milliseconds
	OutBytes int64    // bytes transferred source -> destination
	InBytes  int64    // bytes transferred destination -> source
	OutPkts  int64    // packets transmitted source -> destination
	InPkts   int64    // packets transmitted destination -> source
}

// Edge is a directed edge of the property multigraph: a TCP connection or
// UDP stream from Src to Dst carrying Netflow attributes.
type Edge struct {
	Src   VertexID
	Dst   VertexID
	Props EdgeProps
}

// Graph is a directed property multigraph. Multiple edges between the same
// ordered vertex pair are permitted (each models a distinct flow).
//
// Edges are stored columnar (struct-of-arrays, see EdgeBatch): parallel
// src/dst/property columns instead of a []Edge slice, so structural scans
// touch 8 bytes per edge and the writers stream the columns sequentially.
//
// The zero value is an empty graph ready for use.
type Graph struct {
	numVertices int64
	cols        EdgeBatch

	// addrs optionally maps each vertex to an IPv4 address (host graphs
	// built from traces). Either nil or of length numVertices.
	addrs []uint32
}

// New returns an empty graph with n vertices and no edges.
func New(n int64) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{numVertices: n}
}

// NewWithCapacity returns an empty graph with n vertices and capacity for
// edgeCap edges, avoiding re-allocation while growing.
func NewWithCapacity(n, edgeCap int64) *Graph {
	g := New(n)
	g.cols.Grow(int(edgeCap))
	return g
}

// NewFilled returns a graph with n vertices over cols, resized to edges
// edges (see EdgeBatch.Resize), for a generator's fill stage to overwrite in
// place through Cols().SetEndpoints and SetProps: rows cols already holds
// keep their values, and the rest are all-zero (0 -> 0, no attributes). The
// graph takes cols over without a copy. The endpoints written that way are
// unchecked: the caller runs Validate once the fill is complete.
func NewFilled(n, edges int64, cols EdgeBatch) *Graph {
	g := New(n)
	g.cols = cols
	g.cols.Resize(int(edges))
	return g
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int64 { return g.numVertices }

// NumEdges returns |E| counting multi-edges.
func (g *Graph) NumEdges() int64 { return int64(g.cols.Len()) }

// Cols returns the graph's columnar edge store. The batch is shared with the
// graph: callers may read the columns freely (and mutate properties in place
// via SetProps) but must not append through it — edge creation goes through
// AddEdge so endpoint validation holds. The one
// other route is the generators' fill: NewFilled sizes the columns, tasks
// overwrite disjoint index ranges with SetEndpoints/SetProps, and a final
// Validate checks every endpoint at once.
func (g *Graph) Cols() *EdgeBatch { return &g.cols }

// AddEdge appends a directed edge. Both endpoints must already exist.
func (g *Graph) AddEdge(e Edge) {
	if e.Src < 0 || int64(e.Src) >= g.numVertices || e.Dst < 0 || int64(e.Dst) >= g.numVertices {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.Src, e.Dst, g.numVertices))
	}
	g.cols.Append(e)
}

// SetAddr associates an IPv4 address (big-endian uint32) with vertex v.
func (g *Graph) SetAddr(v VertexID, addr uint32) {
	if g.addrs == nil {
		g.addrs = make([]uint32, g.numVertices)
	}
	g.addrs[v] = addr
}

// Addr returns the IPv4 address associated with v, or 0 if none was set.
func (g *Graph) Addr(v VertexID) uint32 {
	if g.addrs == nil || int64(v) >= int64(len(g.addrs)) {
		return 0
	}
	return g.addrs[v]
}

// OutDegrees returns the out-degree of every vertex (multi-edges counted).
// The scan touches only the 4-byte src column.
func (g *Graph) OutDegrees() []int64 {
	deg := make([]int64, g.numVertices)
	for _, s := range g.cols.src {
		deg[s]++
	}
	return deg
}

// InDegrees returns the in-degree of every vertex (multi-edges counted).
// The scan touches only the 4-byte dst column.
func (g *Graph) InDegrees() []int64 {
	deg := make([]int64, g.numVertices)
	for _, d := range g.cols.dst {
		deg[d]++
	}
	return deg
}

// Degrees returns the total degree (in+out) of every vertex.
func (g *Graph) Degrees() []int64 {
	deg := make([]int64, g.numVertices)
	for i := range g.cols.src {
		deg[g.cols.src[i]]++
		deg[g.cols.dst[i]]++
	}
	return deg
}

// Simplify returns the standard-graph projection Gp of the property graph:
// at most one edge is kept between any ordered vertex pair and all edge
// properties are dropped. This is the E -> Ep step of the PGSK algorithm
// (Figure 3, lines 1-5), implemented with a hashed edge set in O(|E|).
func (g *Graph) Simplify() *Graph {
	n := g.cols.Len()
	seen := make(map[[2]VertexID]struct{}, n)
	out := NewWithCapacity(g.numVertices, int64(n))
	for i := 0; i < n; i++ {
		k := [2]VertexID{g.cols.SrcID(i), g.cols.DstID(i)}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.cols.Append(Edge{Src: k[0], Dst: k[1]})
	}
	return out
}

// Validate checks structural invariants: every edge endpoint is a valid
// vertex and the address table, if present, covers every vertex.
func (g *Graph) Validate() error {
	if g.numVertices < 0 {
		return errors.New("graph: negative vertex count")
	}
	if g.addrs != nil && int64(len(g.addrs)) != g.numVertices {
		return fmt.Errorf("graph: address table has %d entries for %d vertices", len(g.addrs), g.numVertices)
	}
	for i, s := range g.cols.src {
		// The uint32 columns cannot hold negatives, so only the upper
		// bound needs checking.
		if int64(s) >= g.numVertices {
			return fmt.Errorf("graph: edge %d has source %d out of range [0,%d)", i, s, g.numVertices)
		}
		if d := g.cols.dst[i]; int64(d) >= g.numVertices {
			return fmt.Errorf("graph: edge %d has destination %d out of range [0,%d)", i, d, g.numVertices)
		}
	}
	return nil
}
