// Package rows makes artifact row encoding remotable: a partition of binary
// edge records (graph.AppendEdgeRecord) or flow records (replay.EncodeFlows)
// becomes a payload any worker can format into the exact text rows the
// sequential writers produce. Each kind wraps the same
// single-row formatter the local writer uses (graph.AppendEdgeListRow,
// netflow.AppendCSVRow, the NDJSON marshal), so a chunk encoded on a worker
// is byte-for-byte the chunk the coordinator would have written — the
// distributed artifact is the ordered concatenation of header plus chunks.
package rows

import (
	"encoding/json"
	"fmt"

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
	out := make([]byte, 0, len(edges)*48)
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
	out := make([]byte, 0, n*48)
	for ; len(payload) > 0; payload = payload[graph.EdgeRecordLen:] {
		e := graph.DecodeEdgeRecord(payload)
		out = graph.AppendEdgeListRow(out, &e)
	}
	return out, nil
}

// ndjsonEdge is the NDJSON projection of one flow edge; field names mirror
// the TSV edge-list header.
type ndjsonEdge struct {
	Src        int64  `json:"src"`
	Dst        int64  `json:"dst"`
	Proto      string `json:"proto"`
	SrcPort    uint16 `json:"src_port"`
	DstPort    uint16 `json:"dst_port"`
	DurationMS int64  `json:"duration_ms"`
	OutBytes   int64  `json:"out_bytes"`
	InBytes    int64  `json:"in_bytes"`
	OutPkts    int64  `json:"out_pkts"`
	InPkts     int64  `json:"in_pkts"`
	State      string `json:"state"`
}

// appendNDJSONRow appends one edge's NDJSON line to dst. json.Marshal plus
// '\n' is exactly what json.Encoder.Encode emits, so these bytes match the
// sequential NDJSON writer. Both NDJSONRows and NDJSONBatch funnel through
// this single formatter.
func appendNDJSONRow(dst []byte, e *graph.Edge) ([]byte, error) {
	rec := ndjsonEdge{
		Src: int64(e.Src), Dst: int64(e.Dst),
		Proto:   e.Props.Protocol.String(),
		SrcPort: e.Props.SrcPort, DstPort: e.Props.DstPort,
		DurationMS: e.Props.Duration,
		OutBytes:   e.Props.OutBytes, InBytes: e.Props.InBytes,
		OutPkts: e.Props.OutPkts, InPkts: e.Props.InPkts,
		State: e.Props.State.String(),
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	dst = append(dst, line...)
	return append(dst, '\n'), nil
}

// NDJSONRows formats edges as newline-delimited JSON objects.
func NDJSONRows(edges []graph.Edge) ([]byte, error) {
	var out []byte
	var err error
	for i := range edges {
		if out, err = appendNDJSONRow(out, &edges[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// NDJSONBatch formats a columnar edge batch as NDJSON, streaming straight
// over the columns without materializing a row slice.
func NDJSONBatch(b *graph.EdgeBatch) ([]byte, error) {
	var out []byte
	var err error
	for i, n := 0, b.Len(); i < n; i++ {
		e := b.Edge(i)
		if out, err = appendNDJSONRow(out, &e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runNDJSON(payload []byte) ([]byte, error) {
	if _, err := records(payload, graph.EdgeRecordLen, "edge"); err != nil {
		return nil, err
	}
	var out []byte
	for ; len(payload) > 0; payload = payload[graph.EdgeRecordLen:] {
		e := graph.DecodeEdgeRecord(payload)
		var err error
		if out, err = appendNDJSONRow(out, &e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CSVRows formats flows as CSV rows (no header).
func CSVRows(flows []netflow.Flow) []byte {
	out := make([]byte, 0, len(flows)*64)
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
	out := make([]byte, 0, n*64)
	for ; len(payload) > 0; payload = payload[replay.FlowRecordLen:] {
		f, err := replay.DecodeFlow(payload)
		if err != nil {
			return nil, err
		}
		out = netflow.AppendCSVRow(out, &f)
	}
	return out, nil
}
