// Package rows makes artifact row encoding remotable: a partition of binary
// edge records (graph.AppendEdgeRecord) or flow records (replay.EncodeFlows)
// becomes a payload any worker can format into the exact text rows the
// sequential encoders produce. Each kind wraps the same single-row formatter
// the local encoder uses (graph.AppendEdgeListRow, netflow.AppendCSVRow,
// appendNDJSONRow), so a chunk encoded on a worker is byte-for-byte the chunk
// the coordinator would have written — the distributed artifact is the
// ordered concatenation of header plus chunks.
package rows

import (
	"fmt"
	"strconv"

	"csb/internal/dist/task"
	"csb/internal/graph"
	"csb/internal/netflow"
	"csb/internal/replay"
)

// Registered remote kinds: payload records in, text rows out. The csv
// payload is the CSBF1 flow section (replay.EncodeFlows, 80-byte records);
// the kind is rows.csv2 so a worker built for the 78-byte rows.csv payload
// declines the task rather than mis-decoding it.
const (
	TSVKind    = "rows.tsv"    // graph edge records -> tab-separated rows
	NDJSONKind = "rows.ndjson" // graph edge records -> NDJSON objects
	CSVKind    = "rows.csv2"   // replay flow records -> CSV rows
)

func init() {
	task.Register(TSVKind, runTSV)
	task.Register(NDJSONKind, runNDJSON)
	task.Register(CSVKind, runCSV)
}

// EncodeEdges renders a partition of edges as a row-encode payload.
func EncodeEdges(edges []graph.Edge) []byte {
	out := make([]byte, 0, len(edges)*graph.EdgeRecordLen)
	for i := range edges {
		out = graph.AppendEdgeRecord(out, &edges[i])
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

// TSVRows formats edges as edge-list rows (no header): the local half of the
// tsv stage, whose remote half (runTSV) formats the same rows from records.
func TSVRows(edges []graph.Edge) []byte {
	out := make([]byte, 0, len(edges)*graph.EdgeListRowBytes)
	for i := range edges {
		out = graph.AppendEdgeListRow(out, &edges[i])
	}
	return out
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

// NDJSONRowBytes is the capacity an NDJSON encoder reserves per row: the
// row's 125 bytes of keys and punctuation plus the values of a typical
// edge-list row (EdgeListRowBytes less its 11 separators), so a presized
// output does not regrow.
const NDJSONRowBytes = 125 + graph.EdgeListRowBytes - 11

// appendNDJSONRow appends e's NDJSON object and a newline to dst; the keys
// mirror the TSV edge-list header. Every value is an integer or one of the
// fixed protocol and state tokens, none of which needs JSON escaping, and
// encoding/json formats integers with these same strconv calls — so the
// bytes are exactly json.Marshal's plus '\n' (TestNDJSONRowMatchesMarshal).
// The sequential encoder (AppendNDJSON) and both halves of the ndjson stage
// funnel through this single formatter.
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

// NDJSONRows formats edges as newline-delimited JSON objects.
func NDJSONRows(edges []graph.Edge) []byte {
	out := make([]byte, 0, len(edges)*NDJSONRowBytes)
	for i := range edges {
		out = appendNDJSONRow(out, &edges[i])
	}
	return out
}

// AppendNDJSON appends a columnar edge batch as NDJSON to dst, one object
// per edge in edge order, streaming straight over the columns without
// materializing a row slice.
func AppendNDJSON(dst []byte, b *graph.EdgeBatch) []byte {
	for i, n := 0, b.Len(); i < n; i++ {
		e := b.Edge(i)
		dst = appendNDJSONRow(dst, &e)
	}
	return dst
}

func runNDJSON(payload []byte) ([]byte, error) {
	n, err := records(payload, graph.EdgeRecordLen, "edge")
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, n*NDJSONRowBytes)
	for ; len(payload) > 0; payload = payload[graph.EdgeRecordLen:] {
		e := graph.DecodeEdgeRecord(payload)
		out = appendNDJSONRow(out, &e)
	}
	return out, nil
}

// CSVRows formats flows as CSV rows (no header).
func CSVRows(flows []netflow.Flow) []byte {
	out := make([]byte, 0, len(flows)*netflow.CSVRowBytes)
	for i := range flows {
		out = netflow.AppendCSVRow(out, &flows[i])
	}
	return out
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
