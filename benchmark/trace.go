package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one recorded interval around a call the benchmark makes into a
// layer. Spans of one operation share Op; Parent is the index of the span
// that caused this one (-1 for an operation's root span).
type span struct {
	Name   string
	Op     int
	Lane   int // client / subscriber the span ran on
	Parent int
	Start  time.Duration // offset from the recorder's epoch
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. Every method is a no-op
// on a nil recorder, so the untraced run pays one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (the parent of nested spans).
func (r *recorder) begin(name string, op, lane, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Lane: lane, Parent: parent, Start: now})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (engine stage
// spans from a cluster.Tracer, server-reported build time).
func (r *recorder) add(name string, op, lane, parent int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	s := start.Sub(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Lane: lane, Parent: parent, Start: s, End: s + d})
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerRow is one row of the per-workload layer table: the self time of a
// layer (its spans' durations minus what their child spans cover) summed
// over the traced operations, and its share of the operations' wall time.
type layerRow struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
	Spans  int     `json:"spans"`
}

// rootSpan names each operation's root; its self time is the wall time no
// layer span covers (harness glue between calls).
const rootSpan = "op"

// layerTable folds spans into layer self times. It returns the rows sorted
// by share (the first row is the dominant layer) and the ratio of attributed
// time to operation wall time, which must stay within 1 ± 0.10 for the table
// to be trusted.
func layerTable(spans []span) (rows []layerRow, sumRatio float64) {
	childTime := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	count := make(map[string]int)
	var wall time.Duration
	for i, s := range spans {
		d := s.End - s.Start
		if s.Parent < 0 {
			wall += d
		}
		self[s.Name] += d - childTime[i]
		count[s.Name]++
	}
	if wall <= 0 {
		return nil, 0
	}
	var attributed time.Duration
	for name, d := range self {
		if name != rootSpan {
			attributed += d
		}
		rows = append(rows, layerRow{Layer: name, SelfMS: msOf(d), Share: float64(d) / float64(wall), Spans: count[name]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Share != rows[j].Share {
			return rows[i].Share > rows[j].Share
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows, float64(attributed) / float64(wall)
}

func writeLayerTable(w io.Writer, workload string, rows []layerRow, sumRatio float64) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "layer table (%s)\tself_ms\tshare\tspans\n", workload)
	for _, r := range rows {
		fmt.Fprintf(tw, "  %s\t%.2f\t%.1f%%\t%d\n", r.Layer, r.SelfMS, 100*r.Share, r.Spans)
	}
	fmt.Fprintf(tw, "  attributed to layers\t\t%.1f%%\t\n", 100*sumRatio)
	tw.Flush()
}

// writeChromeTrace serializes spans as Chrome trace-event JSON (the format
// cluster.Tracer already writes), one lane per client.
func writeChromeTrace(w io.Writer, workload string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans)+1)
	events = append(events, event{Name: "process_name", Ph: "M", Args: map[string]any{"name": "csb benchmark " + workload}})
	for i, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: s.Start.Microseconds(), Dur: (s.End - s.Start).Microseconds(),
			Tid:  s.Lane,
			Args: map[string]any{"op": s.Op, "span": i, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
