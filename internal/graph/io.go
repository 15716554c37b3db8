package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"csb/internal/bufpool"
)

// Binary graph container format ("CSBG"): a small self-describing format so
// generated graphs can be persisted and reloaded by the CLI tools without
// depending on anything outside the standard library.
//
//	magic     [4]byte  "CSBG"
//	version   uint32   (1)
//	flags     uint32   bit0: address table present
//	vertices  int64
//	edges     int64
//	[addrs]   vertices * uint32
//	edge records, each:
//	  src, dst           int64
//	  protocol, state    uint8
//	  srcPort, dstPort   uint16
//	  duration           int64 (ms)
//	  outBytes, inBytes  int64
//	  outPkts, inPkts    int64

var magic = [4]byte{'C', 'S', 'B', 'G'}

const (
	formatVersion  = 1
	flagAddrs      = 1 << 0
	edgeRecordSize = 8 + 8 + 1 + 1 + 2 + 2 + 8 + 8 + 8 + 8 + 8
)

// EdgeRecordLen is the size of one binary edge record — the unit of the
// CSBG edge section and of the distributed row-encode payloads.
const EdgeRecordLen = edgeRecordSize

// AppendEdgeRecord appends e's fixed-size binary record to dst.
func AppendEdgeRecord(dst []byte, e *Edge) []byte {
	var rec [edgeRecordSize]byte
	encodeEdge(e, rec[:])
	return append(dst, rec[:]...)
}

// DecodeEdgeRecord parses one binary edge record (rec must hold exactly
// EdgeRecordLen bytes; extra bytes are ignored).
func DecodeEdgeRecord(rec []byte) Edge { return decodeEdge(rec) }

// writeChunkEdges is how many edge records Write encodes between writes.
const writeChunkEdges = 1024

// Write serializes the graph in CSBG format. The edge section is encoded
// straight from the columns, writeChunkEdges records at a time into one
// pooled scratch; a destination with a Grow method (*bytes.Buffer) first
// reserves the exact encoded size.
func (g *Graph) Write(w io.Writer) error {
	n := g.cols.Len()
	if gr, ok := w.(interface{ Grow(int) }); ok {
		gr.Grow(len(magic) + 24 + 4*len(g.addrs) + edgeRecordSize*n)
	}
	bw := bufpool.Get(w)
	defer bufpool.Put(bw)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var flags uint32
	if g.addrs != nil {
		flags |= flagAddrs
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], formatVersion)
	binary.LittleEndian.PutUint32(hdr[4:8], flags)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.numVertices))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(n))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if g.addrs != nil {
		var b [4]byte
		for _, a := range g.addrs {
			binary.LittleEndian.PutUint32(b[:], a)
			if _, err := bw.Write(b[:]); err != nil {
				return err
			}
		}
	}
	// The chunks are as large as bw's buffer, so they go to w directly.
	if err := bw.Flush(); err != nil {
		return err
	}
	if cap(bw.Scratch) < writeChunkEdges*edgeRecordSize {
		bw.Scratch = make([]byte, writeChunkEdges*edgeRecordSize)
	}
	for lo := 0; lo < n; lo += writeChunkEdges {
		hi := min(lo+writeChunkEdges, n)
		buf := bw.Scratch[:(hi-lo)*edgeRecordSize]
		g.cols.encodeRecords(buf, lo, hi)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// encodeRecords writes the binary records of edges [lo, hi) into buf, which
// holds exactly (hi-lo)*edgeRecordSize bytes; the layout is encodeEdge's.
func (b *EdgeBatch) encodeRecords(buf []byte, lo, hi int) {
	le := binary.LittleEndian
	for i := lo; i < hi; i++ {
		rec := buf[(i-lo)*edgeRecordSize:][:edgeRecordSize]
		le.PutUint64(rec[0:8], uint64(b.src[i]))
		le.PutUint64(rec[8:16], uint64(b.dst[i]))
		rec[16] = b.proto[i]
		rec[17] = b.state[i]
		le.PutUint16(rec[18:20], b.srcPort[i])
		le.PutUint16(rec[20:22], b.dstPort[i])
		le.PutUint64(rec[22:30], uint64(b.duration[i]))
		le.PutUint64(rec[30:38], uint64(b.outBytes[i]))
		le.PutUint64(rec[38:46], uint64(b.inByte[i]))
		le.PutUint64(rec[46:54], uint64(b.outPkts[i]))
		le.PutUint64(rec[54:62], uint64(b.inPkts[i]))
	}
}

func encodeEdge(e *Edge, rec []byte) {
	binary.LittleEndian.PutUint64(rec[0:8], uint64(e.Src))
	binary.LittleEndian.PutUint64(rec[8:16], uint64(e.Dst))
	rec[16] = byte(e.Props.Protocol)
	rec[17] = byte(e.Props.State)
	binary.LittleEndian.PutUint16(rec[18:20], e.Props.SrcPort)
	binary.LittleEndian.PutUint16(rec[20:22], e.Props.DstPort)
	binary.LittleEndian.PutUint64(rec[22:30], uint64(e.Props.Duration))
	binary.LittleEndian.PutUint64(rec[30:38], uint64(e.Props.OutBytes))
	binary.LittleEndian.PutUint64(rec[38:46], uint64(e.Props.InBytes))
	binary.LittleEndian.PutUint64(rec[46:54], uint64(e.Props.OutPkts))
	binary.LittleEndian.PutUint64(rec[54:62], uint64(e.Props.InPkts))
}

func decodeEdge(rec []byte) Edge {
	var e Edge
	e.Src = VertexID(binary.LittleEndian.Uint64(rec[0:8]))
	e.Dst = VertexID(binary.LittleEndian.Uint64(rec[8:16]))
	e.Props.Protocol = Protocol(rec[16])
	e.Props.State = TCPState(rec[17])
	e.Props.SrcPort = binary.LittleEndian.Uint16(rec[18:20])
	e.Props.DstPort = binary.LittleEndian.Uint16(rec[20:22])
	e.Props.Duration = int64(binary.LittleEndian.Uint64(rec[22:30]))
	e.Props.OutBytes = int64(binary.LittleEndian.Uint64(rec[30:38]))
	e.Props.InBytes = int64(binary.LittleEndian.Uint64(rec[38:46]))
	e.Props.OutPkts = int64(binary.LittleEndian.Uint64(rec[46:54]))
	e.Props.InPkts = int64(binary.LittleEndian.Uint64(rec[54:62]))
	return e
}

// Read deserializes a CSBG graph written by Write.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("graph: bad magic %q", m[:])
	}
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != formatVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint32(hdr[4:8])
	nv := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	ne := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	if nv < 0 || ne < 0 {
		return nil, fmt.Errorf("graph: corrupt header (vertices=%d edges=%d)", nv, ne)
	}
	if ne > 0 && nv > int64(MaxBatchVertexID)+1 {
		return nil, fmt.Errorf("graph: %d vertices exceed the columnar limit of 2^32", nv)
	}
	// Never pre-allocate from untrusted header counts: a corrupt 24-byte
	// header must not be able to demand terabytes. Grow incrementally with
	// a bounded initial capacity instead.
	const maxPrealloc = 1 << 20
	g := NewWithCapacity(nv, min(ne, maxPrealloc))
	if flags&flagAddrs != 0 {
		g.addrs = make([]uint32, 0, min(nv, maxPrealloc))
		var b [4]byte
		for i := int64(0); i < nv; i++ {
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, fmt.Errorf("graph: reading address table: %w", err)
			}
			g.addrs = append(g.addrs, binary.LittleEndian.Uint32(b[:]))
		}
	}
	var rec [edgeRecordSize]byte
	for i := int64(0); i < ne; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		e := decodeEdge(rec[:])
		// Validate before appending: untrusted input must surface as an
		// error, never as the columnar range panic. The bound also covers
		// the uint32 column limit because nv > 2^32 headers are rejected
		// when edges are present.
		if e.Src < 0 || int64(e.Src) >= nv || e.Dst < 0 || int64(e.Dst) >= nv {
			return nil, fmt.Errorf("graph: edge %d (%d,%d) out of range [0,%d)", i, e.Src, e.Dst, nv)
		}
		g.cols.Append(e)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// EdgeListHeader is the header row of the tab-separated edge-list format.
const EdgeListHeader = "src\tdst\tproto\tsrc_port\tdst_port\tduration_ms\tout_bytes\tin_bytes\tout_pkts\tin_pkts\tstate\n"

// EdgeListRowBytes is the capacity an edge-list encoder reserves per row, a
// little over the mean row of a generated graph (38–42 bytes from 10k to
// 500k edges), so a presized output does not regrow.
const EdgeListRowBytes = 48

// AppendEdgeListRow appends e's tab-separated edge-list row (with trailing
// newline) to dst. AppendEdgeList and the distributed row encoders share
// this single formatter, which is what keeps their bytes identical.
func AppendEdgeListRow(dst []byte, e *Edge) []byte {
	b := dst
	b = strconv.AppendInt(b, int64(e.Src), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(e.Dst), 10)
	b = append(b, '\t')
	b = append(b, e.Props.Protocol.String()...)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(e.Props.SrcPort), 10)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(e.Props.DstPort), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, e.Props.Duration, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, e.Props.OutBytes, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, e.Props.InBytes, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, e.Props.OutPkts, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, e.Props.InPkts, 10)
	b = append(b, '\t')
	b = append(b, e.Props.State.String()...)
	b = append(b, '\n')
	return b
}

// AppendEdgeList appends g's human-readable tab-separated edge list to dst:
// the header row, then one flow edge per line in edge order, formatted
// straight from the columns. The bytes match the fmt.Fprintf form this
// replaced (TestAppendEdgeListMatchesFprintf locks that in).
func (g *Graph) AppendEdgeList(dst []byte) []byte {
	dst = append(dst, EdgeListHeader...)
	for i, n := 0, g.cols.Len(); i < n; i++ {
		e := g.cols.Edge(i)
		dst = AppendEdgeListRow(dst, &e)
	}
	return dst
}
