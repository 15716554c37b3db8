package rows

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"csb/internal/graph"
)

// marshalEdge is the encoding/json formatter appendNDJSONRow replaced: the
// ndjsonEdge projection, json.Marshal, then '\n' (what json.Encoder.Encode
// emits). appendNDJSONRow must match it byte for byte.
func marshalEdge(t testing.TB, e *graph.Edge) []byte {
	t.Helper()
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
	line, err := json.Marshal(ndjsonEdge{
		Src: int64(e.Src), Dst: int64(e.Dst),
		Proto:   e.Props.Protocol.String(),
		SrcPort: e.Props.SrcPort, DstPort: e.Props.DstPort,
		DurationMS: e.Props.Duration,
		OutBytes:   e.Props.OutBytes, InBytes: e.Props.InBytes,
		OutPkts: e.Props.OutPkts, InPkts: e.Props.InPkts,
		State: e.Props.State.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// checkNDJSONRow compares appendNDJSONRow with the json.Marshal reference,
// appending after a non-empty prefix so a formatter that drops dst fails.
func checkNDJSONRow(t testing.TB, e graph.Edge) {
	t.Helper()
	want := marshalEdge(t, &e)
	got := appendNDJSONRow([]byte("x"), &e)
	if !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("edge %+v:\n got  %s\n want %s", e, got, want)
	}
}

// TestNDJSONRowMatchesMarshal holds the hand-rolled NDJSON formatter to
// encoding/json over every protocol and state byte (out-of-range bytes map
// to "unknown" and "-") and the integer extremes in every numeric field.
func TestNDJSONRowMatchesMarshal(t *testing.T) {
	for p := 0; p < 256; p++ {
		for s := 0; s < 256; s++ {
			checkNDJSONRow(t, graph.Edge{Src: 1, Dst: 2, Props: graph.EdgeProps{
				Protocol: graph.Protocol(p), State: graph.TCPState(s),
			}})
		}
	}
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, math.MaxUint16}
	ports := []uint16{0, 1, math.MaxUint16}
	for _, v := range ints {
		for _, port := range ports {
			checkNDJSONRow(t, graph.Edge{
				Src: graph.VertexID(v), Dst: graph.VertexID(v),
				Props: graph.EdgeProps{
					Protocol: graph.ProtoTCP, State: graph.StateSF,
					SrcPort: port, DstPort: port,
					Duration: v, OutBytes: v, InBytes: v, OutPkts: v, InPkts: v,
				},
			})
		}
	}
	// One field at an extreme at a time, so a swapped key or value shows.
	for _, set := range []func(e *graph.Edge){
		func(e *graph.Edge) { e.Src = math.MinInt64 },
		func(e *graph.Edge) { e.Dst = math.MinInt64 },
		func(e *graph.Edge) { e.Props.SrcPort = math.MaxUint16 },
		func(e *graph.Edge) { e.Props.DstPort = math.MaxUint16 },
		func(e *graph.Edge) { e.Props.Duration = math.MinInt64 },
		func(e *graph.Edge) { e.Props.OutBytes = math.MinInt64 },
		func(e *graph.Edge) { e.Props.InBytes = math.MinInt64 },
		func(e *graph.Edge) { e.Props.OutPkts = math.MinInt64 },
		func(e *graph.Edge) { e.Props.InPkts = math.MinInt64 },
	} {
		var e graph.Edge
		set(&e)
		checkNDJSONRow(t, e)
	}
}

// FuzzNDJSONRow: any field values format to json.Marshal's bytes.
func FuzzNDJSONRow(f *testing.F) {
	f.Add(int64(0), int64(0), uint8(0), uint8(0), uint16(0), uint16(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Add(int64(12), int64(40012), uint8(graph.ProtoTCP), uint8(graph.StateSF), uint16(49152), uint16(443),
		int64(1500), int64(5120), int64(-1), int64(math.MaxInt64), int64(math.MinInt64))
	f.Add(int64(-7), int64(math.MaxUint32), uint8(200), uint8(9), uint16(math.MaxUint16), uint16(1),
		int64(-1), int64(1), int64(0), int64(3), int64(4))
	f.Fuzz(func(t *testing.T, src, dst int64, proto, state uint8, sport, dport uint16,
		dur, outBytes, inBytes, outPkts, inPkts int64) {
		checkNDJSONRow(t, graph.Edge{
			Src: graph.VertexID(src), Dst: graph.VertexID(dst),
			Props: graph.EdgeProps{
				Protocol: graph.Protocol(proto), State: graph.TCPState(state),
				SrcPort: sport, DstPort: dport, Duration: dur,
				OutBytes: outBytes, InBytes: inBytes, OutPkts: outPkts, InPkts: inPkts,
			},
		})
	})
}
