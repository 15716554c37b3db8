package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"
)

// Tracer collects stage spans from one or more clusters onto a single real
// timeline, for post-mortem analysis of generator pipelines. Attach it via
// Config.Tracer; every stage a cluster executes (parallel stages, serial
// merges, shuffle-coordination charges) becomes one span. Export with
// WriteChromeTrace (chrome://tracing / Perfetto "trace event" JSON) or
// WriteStageTable (plain text).
//
// A Tracer is safe for concurrent use; clusters registered on it appear as
// separate trace lanes (threads) so sweep harnesses that build a fresh
// cluster per configuration keep their runs distinguishable.
type Tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	clusters int
	spans    []TraceSpan
}

// TraceSpan is one recorded stage span, placed on the tracer's timeline.
type TraceSpan struct {
	Cluster int           // lane id of the cluster that executed the stage
	Start   time.Duration // offset of the stage start from the tracer's epoch
	StageRecord
}

// NewTracer returns an empty tracer whose timeline starts now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// register assigns a trace lane to a cluster.
func (t *Tracer) register() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clusters++
	return t.clusters
}

// add appends one span; start is the stage's host start time.
func (t *Tracer) add(cluster int, start time.Time, rec StageRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, TraceSpan{Cluster: cluster, Start: start.Sub(t.epoch), StageRecord: rec})
	t.mu.Unlock()
}

// Spans returns a snapshot of the recorded spans in recording order.
func (t *Tracer) Spans() []TraceSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceSpan(nil), t.spans...)
}

// Reset drops all recorded spans (lane ids keep advancing).
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// traceEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`            // microseconds
	Dur  *int64         `json:"dur,omitempty"` // required on "X" events, even when 0
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object form of a trace, accepted by chrome://tracing
// and Perfetto.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// spanName is the display name of a span: the caller label plus operation.
func spanName(s TraceSpan) string {
	if s.Label == "" {
		return s.Op
	}
	return s.Label + " " + s.Op
}

// WriteChromeTrace serializes the recorded spans as Chrome trace-event JSON.
// Spans are "X" (complete) events on the real timeline: ts/dur are host
// wall-clock microseconds; the virtual-time accounting (makespan, summed
// work) rides along in args so real and virtual cost can be compared span
// by span. Each cluster is one thread lane.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	events := make([]traceEvent, 0, len(spans)+1+t.laneCount())
	events = append(events, traceEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "csb cluster engine"},
	})
	seen := map[int]bool{}
	for _, s := range spans {
		if !seen[s.Cluster] {
			seen[s.Cluster] = true
			events = append(events, traceEvent{
				Name: "thread_name", Ph: "M", Pid: 0, Tid: s.Cluster,
				Args: map[string]any{"name": fmt.Sprintf("cluster %d", s.Cluster)},
			})
		}
		cat := "stage"
		if s.Serial {
			cat = "serial"
		}
		dur := s.Real.Microseconds()
		events = append(events, traceEvent{
			Name: spanName(s),
			Cat:  cat,
			Ph:   "X",
			Ts:   s.Start.Microseconds(),
			Dur:  &dur,
			Pid:  0,
			Tid:  s.Cluster,
			Args: map[string]any{
				"seq":             s.Seq,
				"op":              s.Op,
				"label":           s.Label,
				"tasks":           s.Tasks,
				"serial":          s.Serial,
				"work_us":         s.Work.Microseconds(),
				"virtual_span_us": s.Makespan.Microseconds(),
				"real_us":         s.Real.Microseconds(),
				"task_min_us":     s.TaskMin.Microseconds(),
				"task_max_us":     s.TaskMax.Microseconds(),
				"task_mean_us":    s.TaskMean.Microseconds(),
				"skew":            s.Skew,
				"bytes_in":        s.BytesIn,
				"bytes_out":       s.BytesOut,
				"attempts":        s.Attempts,
				"retries":         s.Retries,
				"failed_attempts": s.FailedAttempts,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// laneCount returns how many lanes have been registered so far.
func (t *Tracer) laneCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clusters
}

// WriteStageTable renders the recorded spans as an aligned plain-text table,
// one row per stage, suitable for eyeballing where a pipeline's time and
// data went.
func (t *Tracer) WriteStageTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "cluster\tseq\tlabel\top\ttasks\treal\twork\tvspan\tskew\tin_bytes\tout_bytes\tattempts\tretries")
	for _, s := range t.Spans() {
		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%d\t%v\t%v\t%v\t%.2f\t%d\t%d\t%d\t%d\n",
			s.Cluster, s.Seq, s.Label, s.Op, s.Tasks,
			s.Real.Round(time.Microsecond), s.Work.Round(time.Microsecond),
			s.Makespan.Round(time.Microsecond), s.Skew, s.BytesIn, s.BytesOut,
			s.Attempts, s.Retries)
	}
	return tw.Flush()
}
