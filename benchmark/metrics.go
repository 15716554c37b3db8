package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Workload names. They are the benchmark's contract with BENCHMARK.json and
// with every later issue that quotes a number.
const (
	wlGenPGPBA     = "gen-pgpba"
	wlGenPGSK      = "gen-pgsk"
	wlServeMix     = "serve-mix"
	wlReplayDetect = "replay-detect"
)

var workloadNames = []string{wlGenPGPBA, wlGenPGSK, wlServeMix, wlReplayDetect}

// metricDef declares one named metric. The end-to-end list is what a user of
// the system sees and what a later PR is gated on (Bound is the share of the
// parent's median by which it may worsen); the per-layer list explains the
// end-to-end numbers and carries no bound. BENCHMARK.json repeats both lists
// and TestCatalogMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is reported by every workload on a --trace 0 run. "edge" is the
// paper's unit of work: a property-graph edge, which is one flow record —
// generated (gen-*), served in an artifact (serve-mix, counted as the edges
// each request asked for) or delivered to a subscriber (replay-detect).
//
// The bounds are about twice the widest run-to-run spread seen on a 2-CPU
// shared host (README.md has the spreads); a tighter bound would reject the
// same commit measured twice.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"edges_per_s", "1/s", "higher", 0.15},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"mem_held_p95_mb", "MB", "lower", 0.20},
}

// perLayer is reported on a --trace 1 run. A layer a workload does not
// exercise reads 0 on the contract line and is absent from result.json.
var perLayer = []metricDef{
	// Figure-1 seed pipeline, one span per call in the decomposed build.
	{"pcap.synthesize_ms", "ms", "lower", 0},
	{"netflow.assemble_ms", "ms", "lower", 0},
	{"netflow.buildgraph_ms", "ms", "lower", 0},
	{"core.analyze_ms", "ms", "lower", 0},
	{"kronfit.fit_ms", "ms", "lower", 0},
	// Generator and engine stages (cluster.Tracer spans grouped by op).
	{"core.generate_ms", "ms", "lower", 0},
	{"core.generate_self_ms", "ms", "lower", 0},
	{"core.edges_out_ratio", "ratio", "lower", 0},
	{"cluster.map_ms", "ms", "lower", 0},
	{"cluster.sample_ms", "ms", "lower", 0},
	{"cluster.shuffle_ms", "ms", "lower", 0},
	{"cluster.serial_ms", "ms", "lower", 0},
	{"cluster.stages", "count", "lower", 0},
	{"cluster.tasks", "count", "lower", 0},
	{"cluster.shuffle_bytes", "B", "lower", 0},
	{"cluster.skew_max", "ratio", "lower", 0},
	{"cluster.parallel_efficiency", "ratio", "higher", 0},
	{"kronecker.distinct_keep_ratio", "ratio", "higher", 0},
	// Artifact encoders, called directly on a generated graph.
	{"serve.encode_ms.tsv", "ms", "lower", 0},
	{"serve.encode_ms.csv", "ms", "lower", 0},
	{"serve.encode_ms.ndjson", "ms", "lower", 0},
	{"serve.encode_ms.csbg", "ms", "lower", 0},
	{"serve.encode_mb_per_s.csbg", "MB/s", "higher", 0},
	// Go runtime counters over the traced run's window.
	{"runtime.alloc_bytes_per_edge", "B", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_op", "ms", "lower", 0},
	{"runtime.gc_cpu_fraction", "ratio", "lower", 0},
	// Daemon path, client-side spans around each HTTP call.
	{"serve.submit_rtt_ms", "ms", "lower", 0},
	{"serve.queue_wait_ms", "ms", "lower", 0},
	{"serve.build_ms", "ms", "lower", 0},
	{"serve.polls_per_job", "count", "lower", 0},
	{"serve.fetch_ttfb_ms", "ms", "lower", 0},
	{"serve.fetch_mb_per_s", "MB/s", "higher", 0},
	{"serve.hit_p50_ms", "ms", "lower", 0},
	{"serve.hit_p90_ms", "ms", "lower", 0},
	{"serve.revisit_p50_ms", "ms", "lower", 0},
	{"serve.cold_p50_ms", "ms", "lower", 0},
	{"serve.cold_p90_ms", "ms", "lower", 0},
	{"serve.cold_p50_ms.tsv", "ms", "lower", 0},
	{"serve.cold_p50_ms.csv", "ms", "lower", 0},
	{"serve.cold_p50_ms.ndjson", "ms", "lower", 0},
	{"serve.cold_p50_ms.csbg", "ms", "lower", 0},
	// Two-tier cache, direct calls on a stand-alone serve.NewCache.
	{"serve.cache_get_mem_us", "us", "lower", 0},
	{"serve.cache_get_disk_ms", "ms", "lower", 0},
	{"serve.cache_put_ms", "ms", "lower", 0},
	{"serve.cache_put_spill_ms", "ms", "lower", 0},
	// Server.Metrics() counters at the end of the traced run.
	{"serve.cache_hits", "count", "higher", 0},
	{"serve.cache_misses", "count", "lower", 0},
	{"serve.cache_evictions", "count", "lower", 0},
	{"serve.cache_spills", "count", "lower", 0},
	{"serve.cache_mem_hit_ratio", "ratio", "higher", 0},
	{"serve.jobs_rejected", "count", "lower", 0},
	{"serve.job_retries", "count", "lower", 0},
	// Stream path.
	{"serve.replay_start_ms", "ms", "lower", 0},
	{"replay.decode_file_ms", "ms", "lower", 0},
	{"replay.emit_flows_per_s", "1/s", "higher", 0},
	{"replay.drain_flows_per_s", "1/s", "higher", 0},
	{"replay.decode_flows_per_s", "1/s", "higher", 0},
	{"ids.stream_flows_per_s", "1/s", "higher", 0},
	{"replay.wire_bytes_per_flow", "B", "lower", 0},
	{"replay.dropped", "count", "lower", 0},
	{"replay.gaps", "count", "lower", 0},
	// The harness itself.
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.layer_sum_ratio", "ratio", "higher", 0},
	{"fail_ratio", "ratio", "lower", 0},
}

// metric is one measured value with its unit and the number of samples the
// value summarizes (1 for counters and whole-window rates).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects a run's metrics by name; set panics on a name the
// catalog does not declare, so a typo cannot mint an unlisted metric.
type metricSet map[string]metric

var catalogUnits = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

func (ms metricSet) set(name string, v float64, n int) {
	unit, ok := catalogUnits[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalog")
	}
	if n == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return // nothing measured: the metric stays absent
	}
	ms[name] = metric{Value: v, Unit: unit, N: n}
}

// setMedianMS records the median of ds in milliseconds.
func (ms metricSet) setMedianMS(name string, ds []time.Duration) {
	ms.set(name, quantileMS(ds, 0.5), len(ds))
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantileMS(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = msOf(d)
	}
	return quantile(xs, q)
}

// sortedNames returns the metric names of ms in catalog order.
func (ms metricSet) sortedNames() []string {
	var out []string
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if _, ok := ms[d.Name]; ok {
				out = append(out, d.Name)
			}
		}
	}
	return out
}

func (ms metricSet) String() string {
	var s string
	for _, name := range ms.sortedNames() {
		m := ms[name]
		s += fmt.Sprintf("  %-32s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	return s
}
