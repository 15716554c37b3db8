package graph

import (
	"fmt"
	"sync"
)

// EdgeBatch is the columnar (struct-of-arrays) edge store: eleven parallel
// columns holding the same information as []Edge, laid out so hot scans touch
// only the bytes they need. Degree counting, CSR construction and component
// labeling read just the 4-byte src/dst columns (8 bytes per edge instead of
// the 64-byte Edge struct), and the property columns stream sequentially
// through the artifact writers. Vertex IDs are stored as uint32 — four
// billion vertices per graph, twice the paper's billion-edge ambition — and
// widen back to VertexID on access.
//
// The zero value is an empty batch ready for use. An EdgeBatch is not safe
// for concurrent mutation; concurrent reads are fine.
type EdgeBatch struct {
	src, dst         []uint32
	proto, state     []uint8
	srcPort, dstPort []uint16
	duration         []int64
	outBytes, inByte []int64
	outPkts, inPkts  []int64
}

// MaxBatchVertexID is the largest vertex ID the columnar layout can store.
const MaxBatchVertexID = VertexID(1<<32 - 1)

// EdgeColumnBytes is what one edge occupies across the eleven columns.
const EdgeColumnBytes = 4 + 4 + 1 + 1 + 2 + 2 + 5*8

// NewEdgeBatch returns an empty batch with capacity for capacity edges.
func NewEdgeBatch(capacity int) *EdgeBatch {
	b := &EdgeBatch{}
	b.Grow(capacity)
	return b
}

// Len returns the number of edges in the batch.
func (b *EdgeBatch) Len() int { return len(b.src) }

// Cap returns the edge capacity the batch can hold without reallocating.
func (b *EdgeBatch) Cap() int { return cap(b.src) }

// Grow ensures capacity for n more edges beyond Len.
func (b *EdgeBatch) Grow(n int) {
	if n <= 0 || b.Len()+n <= b.Cap() {
		return
	}
	need := b.Len() + n
	b.src = growCol(b.src, need)
	b.dst = growCol(b.dst, need)
	b.proto = growCol(b.proto, need)
	b.state = growCol(b.state, need)
	b.srcPort = growCol(b.srcPort, need)
	b.dstPort = growCol(b.dstPort, need)
	b.duration = growCol(b.duration, need)
	b.outBytes = growCol(b.outBytes, need)
	b.inByte = growCol(b.inByte, need)
	b.outPkts = growCol(b.outPkts, need)
	b.inPkts = growCol(b.inPkts, need)
}

func growCol[T any](col []T, need int) []T {
	if cap(col) >= need {
		return col
	}
	out := make([]T, len(col), need)
	copy(out, col)
	return out
}

// checkID panics when v does not fit the 32-bit vertex columns.
func checkID(v VertexID) uint32 {
	if v < 0 || v > MaxBatchVertexID {
		panic(fmt.Sprintf("graph: vertex %d outside the columnar range [0, 2^32)", v))
	}
	return uint32(v)
}

// Append adds one edge to the batch.
func (b *EdgeBatch) Append(e Edge) {
	b.src = append(b.src, checkID(e.Src))
	b.dst = append(b.dst, checkID(e.Dst))
	b.proto = append(b.proto, uint8(e.Props.Protocol))
	b.state = append(b.state, uint8(e.Props.State))
	b.srcPort = append(b.srcPort, e.Props.SrcPort)
	b.dstPort = append(b.dstPort, e.Props.DstPort)
	b.duration = append(b.duration, e.Props.Duration)
	b.outBytes = append(b.outBytes, e.Props.OutBytes)
	b.inByte = append(b.inByte, e.Props.InBytes)
	b.outPkts = append(b.outPkts, e.Props.OutPkts)
	b.inPkts = append(b.inPkts, e.Props.InPkts)
}

// AppendEdges bulk-appends a row-structured edge slice.
func (b *EdgeBatch) AppendEdges(es []Edge) {
	b.Grow(len(es))
	for i := range es {
		b.Append(es[i])
	}
}

// AppendBatch appends every edge of o (column-wise copies, no per-edge work).
func (b *EdgeBatch) AppendBatch(o *EdgeBatch) {
	b.Grow(o.Len())
	b.src = append(b.src, o.src...)
	b.dst = append(b.dst, o.dst...)
	b.proto = append(b.proto, o.proto...)
	b.state = append(b.state, o.state...)
	b.srcPort = append(b.srcPort, o.srcPort...)
	b.dstPort = append(b.dstPort, o.dstPort...)
	b.duration = append(b.duration, o.duration...)
	b.outBytes = append(b.outBytes, o.outBytes...)
	b.inByte = append(b.inByte, o.inByte...)
	b.outPkts = append(b.outPkts, o.outPkts...)
	b.inPkts = append(b.inPkts, o.inPkts...)
}

// SrcID returns the source vertex of edge i, touching only the src column.
func (b *EdgeBatch) SrcID(i int) VertexID { return VertexID(b.src[i]) }

// DstID returns the destination vertex of edge i, touching only the dst
// column.
func (b *EdgeBatch) DstID(i int) VertexID { return VertexID(b.dst[i]) }

// Per-column accessors: each reads exactly one column, so a scan that needs
// a single attribute (the eval marginals, protocol histograms) streams only
// that column's bytes.

// Protocol returns the transport protocol of edge i.
func (b *EdgeBatch) Protocol(i int) Protocol { return Protocol(b.proto[i]) }

// State returns the TCP state of edge i.
func (b *EdgeBatch) State(i int) TCPState { return TCPState(b.state[i]) }

// SrcPort returns the source port of edge i.
func (b *EdgeBatch) SrcPort(i int) uint16 { return b.srcPort[i] }

// DstPort returns the destination port of edge i.
func (b *EdgeBatch) DstPort(i int) uint16 { return b.dstPort[i] }

// Duration returns the flow duration (ms) of edge i.
func (b *EdgeBatch) Duration(i int) int64 { return b.duration[i] }

// OutBytes returns the source->destination byte count of edge i.
func (b *EdgeBatch) OutBytes(i int) int64 { return b.outBytes[i] }

// InBytes returns the destination->source byte count of edge i.
func (b *EdgeBatch) InBytes(i int) int64 { return b.inByte[i] }

// OutPkts returns the source->destination packet count of edge i.
func (b *EdgeBatch) OutPkts(i int) int64 { return b.outPkts[i] }

// InPkts returns the destination->source packet count of edge i.
func (b *EdgeBatch) InPkts(i int) int64 { return b.inPkts[i] }

// Props materializes the Netflow attribute struct of edge i.
func (b *EdgeBatch) Props(i int) EdgeProps {
	return EdgeProps{
		Protocol: Protocol(b.proto[i]),
		State:    TCPState(b.state[i]),
		SrcPort:  b.srcPort[i],
		DstPort:  b.dstPort[i],
		Duration: b.duration[i],
		OutBytes: b.outBytes[i],
		InBytes:  b.inByte[i],
		OutPkts:  b.outPkts[i],
		InPkts:   b.inPkts[i],
	}
}

// Edge materializes edge i as a row struct.
func (b *EdgeBatch) Edge(i int) Edge {
	return Edge{Src: b.SrcID(i), Dst: b.DstID(i), Props: b.Props(i)}
}

// SetEdge overwrites edge i in place.
func (b *EdgeBatch) SetEdge(i int, e Edge) {
	b.SetEndpoints(i, checkID(e.Src), checkID(e.Dst))
	b.SetProps(i, e.Props)
}

// SetEndpoints overwrites the endpoints of edge i in place. Distinct indices
// are distinct memory, so tasks owning disjoint ranges may write concurrently.
func (b *EdgeBatch) SetEndpoints(i int, src, dst uint32) { b.src[i], b.dst[i] = src, dst }

// SetProps overwrites the attributes of edge i in place.
func (b *EdgeBatch) SetProps(i int, p EdgeProps) {
	b.proto[i] = uint8(p.Protocol)
	b.state[i] = uint8(p.State)
	b.srcPort[i] = p.SrcPort
	b.dstPort[i] = p.DstPort
	b.duration[i] = p.Duration
	b.outBytes[i] = p.OutBytes
	b.inByte[i] = p.InBytes
	b.outPkts[i] = p.OutPkts
	b.inPkts[i] = p.InPkts
}

// Truncate shortens the batch to n edges, keeping capacity.
func (b *EdgeBatch) Truncate(n int) {
	b.src = b.src[:n]
	b.dst = b.dst[:n]
	b.proto = b.proto[:n]
	b.state = b.state[:n]
	b.srcPort = b.srcPort[:n]
	b.dstPort = b.dstPort[:n]
	b.duration = b.duration[:n]
	b.outBytes = b.outBytes[:n]
	b.inByte = b.inByte[:n]
	b.outPkts = b.outPkts[:n]
	b.inPkts = b.inPkts[:n]
}

// Reset empties the batch, keeping capacity for reuse.
func (b *EdgeBatch) Reset() { b.Truncate(0) }

// Clone returns a deep copy.
func (b *EdgeBatch) Clone() *EdgeBatch {
	out := NewEdgeBatch(b.Len())
	out.AppendBatch(b)
	return out
}

// Edges materializes the whole batch as a fresh row-structured slice. The
// result shares no storage with the batch.
func (b *EdgeBatch) Edges() []Edge {
	out := make([]Edge, b.Len())
	for i := range out {
		out[i] = b.Edge(i)
	}
	return out
}

// batchPool recycles EdgeBatch column storage across pipeline stages (the
// same discipline bufpool applies to the writers' buffers): borrow with
// GetBatch, fill, hand off or consume, return with PutBatch. A returned
// batch's columns are truncated, never zeroed — the next borrower appends
// over them — so PutBatch must only be called once no live reference aliases
// the batch (the property tests pin this down).
var batchPool = sync.Pool{New: func() any { return new(EdgeBatch) }}

// GetBatch borrows a reset batch with capacity for at least capacity edges.
func GetBatch(capacity int) *EdgeBatch {
	b := batchPool.Get().(*EdgeBatch)
	b.Grow(capacity)
	return b
}

// PutBatch resets b and returns it to the pool. The caller must not retain
// any reference to b or its columns.
func PutBatch(b *EdgeBatch) {
	b.Reset()
	batchPool.Put(b)
}
