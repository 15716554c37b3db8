package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// tracedCluster builds a small cluster wired to a fresh tracer.
func tracedCluster(t *testing.T) (*Cluster, *Tracer) {
	t.Helper()
	tr := NewTracer()
	c := MustNew(Config{Nodes: 2, CoresPerNode: 2, DefaultPartitions: 8, Tracer: tr})
	return c, tr
}

// runTracedPipeline exercises every traced operation class once.
func runTracedPipeline(c *Cluster) {
	defer c.Scope("pipeline")()
	d := Parallelize(c, seq(200), 8)
	d = Map(d, func(x int) int { return x % 50 })
	d = Sample(d, 0.5, 1)
	d = MapPartitions(d, func(part int, xs []int) []int { return xs })
	d = Distinct(d, func(x int) int { return x }, func(k int) uint64 { return uint64(k) })
	Collect(Coalesce(d, 2))
}

func TestTracerRecordsSpans(t *testing.T) {
	c, tr := tracedCluster(t)
	runTracedPipeline(c)

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	ops := map[string]bool{}
	for _, s := range spans {
		if s.Op == "" {
			t.Errorf("span seq %d has empty op", s.Seq)
		}
		ops[s.Op] = true
		if s.Cluster != 1 {
			t.Errorf("span %q on lane %d, want 1", s.Op, s.Cluster)
		}
		if !s.Serial && s.Op != "shuffle.coord" && s.Label != "pipeline" {
			t.Errorf("span %q label = %q, want \"pipeline\"", s.Op, s.Label)
		}
	}
	for _, want := range []string{
		"map", "sample", "mapPartitions", "distinct.local", "distinct.merge",
		"shuffle.coord", "coalesce",
	} {
		if !ops[want] {
			t.Errorf("no span for op %q (got %v)", want, ops)
		}
	}
}

func TestTracerSpanStats(t *testing.T) {
	c, tr := tracedCluster(t)
	d := Parallelize(c, seq(1000), 8)
	Collect(Map(d, func(x int) int { return x * x }))

	var mapSpan *TraceSpan
	for i, s := range tr.Spans() {
		if s.Op == "map" {
			mapSpan = &tr.Spans()[i]
			break
		}
	}
	if mapSpan == nil {
		t.Fatal("no map span")
	}
	if mapSpan.Tasks != 8 {
		t.Errorf("tasks = %d, want 8", mapSpan.Tasks)
	}
	if mapSpan.TaskMin > mapSpan.TaskMean || mapSpan.TaskMean > mapSpan.TaskMax {
		t.Errorf("task stats not ordered: min %v mean %v max %v",
			mapSpan.TaskMin, mapSpan.TaskMean, mapSpan.TaskMax)
	}
	if mapSpan.Skew < 1 {
		t.Errorf("skew = %v, want >= 1", mapSpan.Skew)
	}
	if mapSpan.BytesIn <= 0 || mapSpan.BytesOut <= 0 {
		t.Errorf("bytes in/out = %d/%d, want positive", mapSpan.BytesIn, mapSpan.BytesOut)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c, tr := tracedCluster(t)
	runTracedPipeline(c)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *int64         `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", file.DisplayTimeUnit)
	}
	var meta, complete int
	for _, ev := range file.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event missing required field: %+v", ev)
		}
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Args["op"] == "" {
				t.Errorf("X event %q has no op arg", ev.Name)
			}
			if _, ok := ev.Args["virtual_span_us"]; !ok {
				t.Errorf("X event %q missing virtual_span_us arg", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if meta < 2 { // process_name + at least one thread_name
		t.Errorf("metadata events = %d, want >= 2", meta)
	}
	if complete != len(tr.Spans()) {
		t.Errorf("X events = %d, want %d (one per span)", complete, len(tr.Spans()))
	}
}

func TestWriteStageTable(t *testing.T) {
	c, tr := tracedCluster(t)
	runTracedPipeline(c)

	var buf bytes.Buffer
	if err := tr.WriteStageTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "cluster") {
		t.Errorf("table header = %q", lines[0])
	}
	if got, want := len(lines)-1, len(tr.Spans()); got != want {
		t.Errorf("table rows = %d, want %d", got, want)
	}
	if !strings.Contains(out, "distinct.merge") {
		t.Errorf("table missing distinct.merge row:\n%s", out)
	}
}

func TestTracerMultipleClusterLanes(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 2; i++ {
		c := MustNew(Config{Nodes: 1, CoresPerNode: 2, DefaultPartitions: 4, Tracer: tr})
		Collect(Map(Parallelize(c, seq(10), 2), func(x int) int { return x + 1 }))
	}
	lanes := map[int]bool{}
	for _, s := range tr.Spans() {
		lanes[s.Cluster] = true
	}
	if len(lanes) != 2 {
		t.Fatalf("lanes = %v, want 2 distinct", lanes)
	}
}

func TestTracerReset(t *testing.T) {
	c, tr := tracedCluster(t)
	Collect(Map(Parallelize(c, seq(10), 2), func(x int) int { return x }))
	if len(tr.Spans()) == 0 {
		t.Fatal("expected spans before reset")
	}
	tr.Reset()
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("spans after reset = %d", n)
	}
}

func TestScopeNesting(t *testing.T) {
	c, tr := tracedCluster(t)
	end := c.Scope("outer")
	inner := c.Scope("inner")
	Collect(Map(Parallelize(c, seq(10), 2), func(x int) int { return x }))
	inner()
	end()
	Collect(Map(Parallelize(c, seq(10), 2), func(x int) int { return x }))

	var nested, bare bool
	for _, s := range tr.Spans() {
		if s.Op != "map" {
			continue
		}
		switch s.Label {
		case "outer/inner":
			nested = true
		case "":
			bare = true
		}
	}
	if !nested {
		t.Error("no span labeled outer/inner")
	}
	if !bare {
		t.Error("no unlabeled span after scopes popped")
	}
}

// TestTracerConcurrentClusterAppends drives several clusters into one shared
// tracer from concurrent goroutines — the csbd serving pattern, where every
// simultaneous job owns a cluster but all stream spans into the daemon's
// tracer. Run under -race this is the data-race check for Tracer.add/Spans.
func TestTracerConcurrentClusterAppends(t *testing.T) {
	tr := NewTracer()
	const jobs = 8
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := MustNew(Config{Nodes: 1, CoresPerNode: 2, DefaultPartitions: 4, Tracer: tr})
			runTracedPipeline(c)
		}()
	}
	// Readers race the writers: snapshotting and exporting mid-run must be
	// safe, exactly like a /metrics scrape during active jobs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Spans()
			var buf bytes.Buffer
			tr.WriteChromeTrace(&buf)
		}
	}()
	wg.Wait()
	<-done

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	lanes := map[int]bool{}
	for _, s := range spans {
		lanes[s.Cluster] = true
	}
	if len(lanes) != jobs {
		t.Fatalf("spans cover %d lanes, want %d", len(lanes), jobs)
	}
}
