// Package rows encodes the text artifact formats, in-process or as a
// remotable row stage. Each format has one range formatter that appends the
// rows of a graph's edges [lo, hi) straight from the columns: the in-process
// encoder runs it over [0, n) and the chunk stage over each partition's
// [lo, hi). A partition can instead ship as a payload of binary edge records
// (graph.AppendEdgeRecord) or flow records (replay.EncodeFlow) that any
// worker formats, through the same single-row formatter
// (graph.AppendEdgeListRow, netflow.AppendCSVRow, appendNDJSONRow), into
// byte-for-byte the chunk the coordinator would have written — the
// distributed artifact is the ordered concatenation of header plus chunks.
package rows

import (
	"fmt"
	"strconv"

	"csb/internal/cluster"
	"csb/internal/dist/task"
	"csb/internal/graph"
	"csb/internal/netflow"
	"csb/internal/replay"
)

// Registered remote kinds: payload records in, text rows out. The csv
// payload is the CSBF1 flow section (80-byte replay flow records); the kind
// is rows.csv2 so a worker built for the 78-byte rows.csv payload declines
// the task rather than mis-decoding it.
const (
	tsvKind    = "rows.tsv"    // graph edge records -> tab-separated rows
	ndjsonKind = "rows.ndjson" // graph edge records -> NDJSON objects
	csvKind    = "rows.csv2"   // replay flow records -> CSV rows
)

func init() {
	task.Register(tsvKind, runTSV)
	task.Register(ndjsonKind, runNDJSON)
	task.Register(csvKind, runCSV)
}

// Format is one text artifact format as a remotable row stage.
type Format struct {
	header   string // written once, before the rows
	kind     string // the task kind a worker formats payload's bytes with
	rowBytes int    // per-row capacity estimate, so a presized output does not regrow
	// rows is the format's range formatter: it appends the rows of g's
	// edges [lo, hi) to dst, in edge order, straight from the columns.
	rows func(dst []byte, g *graph.Graph, lo, hi int) []byte
	// payload renders edges [lo, hi) as the records kind formats into
	// exactly rows' bytes.
	payload func(g *graph.Graph, lo, hi int) []byte
}

// The text artifact formats.
var (
	TSV    = Format{graph.EdgeListHeader, tsvKind, graph.EdgeListRowBytes, tsvRows, edgeRecords}
	NDJSON = Format{"", ndjsonKind, ndjsonRowBytes, ndjsonRows, edgeRecords}
	CSV    = Format{netflow.CSVHeaderLine, csvKind, netflow.CSVRowBytes, csvRows, flowRecords}
)

// Encode returns g's artifact in format f: the header, then the rows of
// every edge. Without a cluster, or on one without a TaskExecutor, the rows
// of [0, n) are appended into one slice presized from the row-width
// estimate, so it does not regrow. On a cluster with a TaskExecutor they
// encode chunk-parallel as one remotable row stage: the edges are
// partitioned as Parallelize partitions n elements, each task formats its
// [lo, hi) or ships it as a payload a worker formats into the same bytes,
// and the header and chunks are concatenated in partition order into one
// slice of their exact total size. Each row's bytes depend on its edge
// alone, so they are identical on every partitioning and worker count.
func (f *Format) Encode(g *graph.Graph, c *cluster.Cluster) ([]byte, error) {
	n := int(g.NumEdges())
	if c == nil || c.Config().Executor == nil {
		out := append(make([]byte, 0, len(f.header)+n*f.rowBytes), f.header...)
		return f.rows(out, g, 0, n), nil
	}
	ds := cluster.Parallelize(c, make([]struct{}, n), 0)
	offsets := ds.Offsets()
	chunks := cluster.MapPartitionsRemotable(ds, f.kind,
		func(part int, xs []struct{}) []byte {
			lo := int(offsets[part])
			return f.rows(make([]byte, 0, len(xs)*f.rowBytes), g, lo, lo+len(xs))
		},
		func(part int, xs []struct{}) []byte {
			lo := int(offsets[part])
			return f.payload(g, lo, lo+len(xs))
		},
		func(result []byte) ([]byte, error) { return result, nil })
	if err := c.Err(); err != nil {
		return nil, err
	}
	size := len(f.header)
	for i := 0; i < chunks.NumPartitions(); i++ {
		size += len(chunks.Partition(i))
	}
	out := append(make([]byte, 0, size), f.header...)
	for i := 0; i < chunks.NumPartitions(); i++ {
		out = append(out, chunks.Partition(i)...)
	}
	return out, nil
}

// edgeRecords is the tsv and ndjson payload: edges [lo, hi) as binary edge
// records.
func edgeRecords(g *graph.Graph, lo, hi int) []byte {
	cols := g.Cols()
	out := make([]byte, 0, (hi-lo)*graph.EdgeRecordLen)
	for i := lo; i < hi; i++ {
		e := cols.Edge(i)
		out = graph.AppendEdgeRecord(out, &e)
	}
	return out
}

// flowRecords is the csv payload: edges [lo, hi) projected into flows
// (netflow.EdgeFlow) as replay flow records.
func flowRecords(g *graph.Graph, lo, hi int) []byte {
	out := make([]byte, 0, (hi-lo)*replay.FlowRecordLen)
	var f netflow.Flow
	for i := lo; i < hi; i++ {
		netflow.EdgeFlow(&f, g, i)
		rec := replay.EncodeFlow(&f)
		out = append(out, rec[:]...)
	}
	return out
}

// records reports how many recLen-byte records payload holds, rejecting a
// ragged payload.
func records(payload []byte, recLen int, what string) (int, error) {
	if len(payload)%recLen != 0 {
		return 0, fmt.Errorf("rows: %s payload length %d not a multiple of %d", what, len(payload), recLen)
	}
	return len(payload) / recLen, nil
}

func tsvRows(dst []byte, g *graph.Graph, lo, hi int) []byte {
	cols := g.Cols()
	for i := lo; i < hi; i++ {
		e := cols.Edge(i)
		dst = graph.AppendEdgeListRow(dst, &e)
	}
	return dst
}

func runTSV(payload []byte) ([]byte, error) {
	n, err := records(payload, graph.EdgeRecordLen, "edge")
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, n*graph.EdgeListRowBytes)
	for ; len(payload) > 0; payload = payload[graph.EdgeRecordLen:] {
		e := graph.DecodeEdgeRecord(payload)
		out = graph.AppendEdgeListRow(out, &e)
	}
	return out, nil
}

// ndjsonRowBytes is the capacity an NDJSON encoder reserves per row: the
// row's 125 bytes of keys and punctuation plus the values of a typical
// edge-list row (EdgeListRowBytes less its 11 separators), so a presized
// output does not regrow.
const ndjsonRowBytes = 125 + graph.EdgeListRowBytes - 11

// appendNDJSONRow appends e's NDJSON object and a newline to dst; the keys
// mirror the TSV edge-list header. Every value is an integer or one of the
// fixed protocol and state tokens, none of which needs JSON escaping, and
// encoding/json formats integers with these same strconv calls — so the
// bytes are exactly json.Marshal's plus '\n' (TestNDJSONRowMatchesMarshal).
// Both halves of the ndjson stage funnel through this single formatter.
func appendNDJSONRow(dst []byte, e *graph.Edge) []byte {
	b := append(dst, `{"src":`...)
	b = strconv.AppendInt(b, int64(e.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(e.Dst), 10)
	b = append(b, `,"proto":"`...)
	b = append(b, e.Props.Protocol.String()...)
	b = append(b, `","src_port":`...)
	b = strconv.AppendUint(b, uint64(e.Props.SrcPort), 10)
	b = append(b, `,"dst_port":`...)
	b = strconv.AppendUint(b, uint64(e.Props.DstPort), 10)
	b = append(b, `,"duration_ms":`...)
	b = strconv.AppendInt(b, e.Props.Duration, 10)
	b = append(b, `,"out_bytes":`...)
	b = strconv.AppendInt(b, e.Props.OutBytes, 10)
	b = append(b, `,"in_bytes":`...)
	b = strconv.AppendInt(b, e.Props.InBytes, 10)
	b = append(b, `,"out_pkts":`...)
	b = strconv.AppendInt(b, e.Props.OutPkts, 10)
	b = append(b, `,"in_pkts":`...)
	b = strconv.AppendInt(b, e.Props.InPkts, 10)
	b = append(b, `,"state":"`...)
	b = append(b, e.Props.State.String()...)
	return append(b, "\"}\n"...)
}

func ndjsonRows(dst []byte, g *graph.Graph, lo, hi int) []byte {
	cols := g.Cols()
	for i := lo; i < hi; i++ {
		e := cols.Edge(i)
		dst = appendNDJSONRow(dst, &e)
	}
	return dst
}

func runNDJSON(payload []byte) ([]byte, error) {
	n, err := records(payload, graph.EdgeRecordLen, "edge")
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, n*ndjsonRowBytes)
	for ; len(payload) > 0; payload = payload[graph.EdgeRecordLen:] {
		e := graph.DecodeEdgeRecord(payload)
		out = appendNDJSONRow(out, &e)
	}
	return out, nil
}

func csvRows(dst []byte, g *graph.Graph, lo, hi int) []byte {
	var f netflow.Flow
	for i := lo; i < hi; i++ {
		netflow.EdgeFlow(&f, g, i)
		dst = netflow.AppendCSVRow(dst, &f)
	}
	return dst
}

func runCSV(payload []byte) ([]byte, error) {
	n, err := records(payload, replay.FlowRecordLen, "flow")
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, n*netflow.CSVRowBytes)
	for ; len(payload) > 0; payload = payload[replay.FlowRecordLen:] {
		f, err := replay.DecodeFlow(payload)
		if err != nil {
			return nil, err
		}
		out = netflow.AppendCSVRow(out, &f)
	}
	return out, nil
}
