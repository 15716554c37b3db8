package main

import (
	"context"
	"fmt"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"csb/internal/cluster"
	"csb/internal/serve"
)

// The engine shape is pinned everywhere: the default shape follows
// GOMAXPROCS, which makes partition counts (and so edge counts and bytes)
// depend on the host. With one node of two cores the work is a function of
// the spec alone, on any machine.
const (
	pinnedNodes = 1
	pinnedCores = 2
	// pinnedProcs is the GOMAXPROCS every workload process runs at.
	pinnedProcs = 2
)

var pinnedShape = serve.EngineShape{Nodes: pinnedNodes, CoresPerNode: pinnedCores}

// newPinnedCluster returns a fresh job cluster of the pinned shape.
func newPinnedCluster(ctx context.Context, tracer *cluster.Tracer) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{Nodes: pinnedNodes, CoresPerNode: pinnedCores, Context: ctx, Tracer: tracer})
}

// sizes fixes how much work one operation is. fullSizes is the benchmark;
// the tests run the same code at tinySizes.
type sizes struct {
	GenEdges    int64 // gen-*: edges per job
	EdgeSlack   int64 // gen-*: percent by which a job may overshoot GenEdges
	ServeEdges  int64 // serve-mix: edges per job
	ReplayEdges int64 // replay-detect: background edges of the scenario
	// Attack widths of the replay-detect scenario.
	ScanPorts, FloodFlows, DDoSSources, DDoSFlowsPerSource int
	CacheBytes                                             int64 // serve.Config.CacheBytes
	MinOps                                                 int   // a window measures at least this many operations
	Warmup                                                 int   // discarded operations at the end of set-up
	SetupReps                                              int   // set-ups per run; setup_s is their median
	ProbeReps                                              int   // repetitions of each stand-alone layer probe
}

var fullSizes = sizes{
	GenEdges: 500_000, EdgeSlack: 5, ServeEdges: 100_000, ReplayEdges: 500_000,
	ScanPorts: 2000, FloodFlows: 5000, DDoSSources: 200, DDoSFlowsPerSource: 20,
	CacheBytes: 64 << 20, MinOps: 8, Warmup: 3, SetupReps: 3, ProbeReps: 5,
}

// outcome is what one operation reports to the window loop.
type outcome struct {
	dur   time.Duration
	edges int64         // edges (flow records) the operation delivered
	class string        // latency class within the workload ("hit", "cold:tsv", ...); "" when there is one
	pause time.Duration // harness verification time to take off the window clock
	err   error         // why the operation counts as failed

	traced bool // set by the window loop
}

// workload is one closed-loop traffic mix. setUp brings the program under
// test to its warmed-up state and may be called again after tearDown; op runs
// one operation on client lane (rec is nil on the untraced run); finish runs
// the checks that wait for the window to end and returns what they found
// wrong.
type workload interface {
	name() string
	clients() int
	// period is the length of the workload's request pattern in operations.
	// A traced run alternates untraced and traced blocks of one period, so
	// both see the same mix and the same drift of the host.
	period() int
	setUp(ctx context.Context) error
	op(ctx context.Context, lane, i int, rec *recorder) outcome
	finish(ctx context.Context) []error
	// layers adds the workload's counter, span-derived and probe metrics
	// after the traced run's window.
	layers(ctx context.Context, ms metricSet, untraced phase) error
	tearDown() error
}

// phase is a set of operations of one window.
type phase struct {
	outs    []outcome
	windowS float64 // wall time of the window minus harness pauses
	mem     memDelta
}

// memDelta is the Go runtime's allocation and GC activity over a phase.
type memDelta struct {
	allocBytes, mallocs, pauseNS uint64
	gcCPUFraction                float64
}

func readMem() (m runtime.MemStats) { runtime.ReadMemStats(&m); return m }

// runWindow drives w closed-loop from w.clients() goroutines until the window
// has measured for d and at least minOps operations. With a recorder, every
// other block of w.period() operations records spans and the Go runtime's
// counters are read around the window.
func runWindow(ctx context.Context, w workload, d time.Duration, minOps int, rec *recorder) phase {
	var (
		mu     sync.Mutex
		outs   []outcome
		paused time.Duration
		next   int
	)
	withMem := rec != nil
	var before runtime.MemStats
	if withMem {
		before = readMem()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < w.clients(); lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				mu.Lock()
				done := time.Since(start)-paused >= d && next >= minOps
				i := next
				if !done {
					next++
				}
				mu.Unlock()
				if done || ctx.Err() != nil {
					return
				}
				var opRec *recorder
				if (i/w.period())%2 == 1 {
					opRec = rec
				}
				out := w.op(ctx, lane, i, opRec)
				out.traced = opRec != nil
				mu.Lock()
				outs = append(outs, out)
				paused += out.pause
				mu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	ph := phase{outs: outs, windowS: (time.Since(start) - paused).Seconds()}
	if withMem {
		after := readMem()
		ph.mem = memDelta{
			allocBytes:    after.TotalAlloc - before.TotalAlloc,
			mallocs:       after.Mallocs - before.Mallocs,
			pauseNS:       after.PauseTotalNs - before.PauseTotalNs,
			gcCPUFraction: after.GCCPUFraction,
		}
	}
	return ph
}

// split separates a traced run's window into its untraced and traced
// operations.
func (ph phase) split() (untraced, traced phase) {
	for _, o := range ph.outs {
		if o.traced {
			traced.outs = append(traced.outs, o)
		} else {
			untraced.outs = append(untraced.outs, o)
		}
	}
	return untraced, traced
}

func (ph phase) durations(class string) []time.Duration {
	var ds []time.Duration
	for _, o := range ph.outs {
		if o.err == nil && strings.HasPrefix(o.class, class) {
			ds = append(ds, o.dur)
		}
	}
	return ds
}

func (ph phase) edges() (n int64) {
	for _, o := range ph.outs {
		if o.err == nil {
			n += o.edges
		}
	}
	return n
}

func (ph phase) failures() (errs []error) {
	for _, o := range ph.outs {
		if o.err != nil {
			errs = append(errs, o.err)
		}
	}
	return errs
}

// result is what one workload process reports: the contract's four keys plus
// the stamp and tables result.json keeps.
type result struct {
	Workload   string     `json:"workload"`
	Trace      int        `json:"trace"`
	Seed       uint64     `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Stamp      stamp      `json:"stamp"`
	Correct    bool       `json:"correct"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	Failures   []string   `json:"failures,omitempty"`
	Metrics    metricSet  `json:"metrics"`
	LayerTable []layerRow `json:"layer_table,omitempty"`
	spans      []span
}

func (r *result) fail(errs ...error) {
	for _, err := range errs {
		r.Failed++
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

// runWorkload runs one workload in this process: the untraced run measures
// the end-to-end metrics, the traced run the per-layer ones.
func runWorkload(ctx context.Context, w workload, sz sizes, seed uint64, seconds float64, trace int) (*result, error) {
	res := &result{
		Workload: w.name(), Trace: trace, Seed: seed, Seconds: seconds,
		Stamp: newStamp(sz), Metrics: metricSet{},
	}
	window := time.Duration(seconds * float64(time.Second))

	// Set-up runs several times so setup_s is a median; the last one stays up.
	reps := sz.SetupReps
	if trace == 1 {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			if err := w.tearDown(); err != nil {
				return nil, fmt.Errorf("%s: tear-down: %w", w.name(), err)
			}
		}
		t0 := time.Now()
		if err := w.setUp(ctx); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The traced run's window is shorter, to leave time for the stand-alone
	// probes, and holds two untraced and two traced blocks at the least.
	var rec *recorder
	minOps := sz.MinOps
	if trace == 1 {
		rec = newRecorder()
		window, minOps = window*4/5, max(minOps, 4*w.period())
	}
	sampler := startMemSampler()
	ph := runWindow(ctx, w, window, minOps, rec)
	held := sampler.stopMB()
	res.Attempted = len(ph.outs)
	res.fail(ph.failures()...)
	res.fail(w.finish(ctx)...)
	ms := res.Metrics
	if trace == 0 {
		ds := ph.durations("")
		ms.set("setup_s", median(setups), len(setups))
		ms.set("edges_per_s", float64(ph.edges())/ph.windowS, 1)
		ms.set("op_p50_ms", quantileMS(ds, 0.5), len(ds))
		ms.set("op_p90_ms", quantileMS(ds, 0.9), len(ds))
		ms.set("mem_held_p95_mb", quantile(held, 0.95), len(held))
	} else {
		untraced, traced := ph.split()
		if err := w.layers(ctx, ms, untraced); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("%s: layer probes: %w", w.name(), err)
		}
		setRuntimeMetrics(ms, ph)
		if u, t := untraced.durations(""), traced.durations(""); len(u) > 0 && len(t) > 0 {
			ms.set("trace.overhead_ratio", quantileMS(t, 0.5)/quantileMS(u, 0.5), len(t))
		}
		res.spans = rec.snapshot()
		var sum float64
		res.LayerTable, sum = layerTable(res.spans)
		ms.set("trace.layer_sum_ratio", sum, len(traced.outs))
		if sum < 0.9 || sum > 1.1 {
			res.fail(fmt.Errorf("layer table attributes %.1f%% of operation wall time, want 100 ± 10%%", 100*sum))
		}
		ms.set("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
	}

	if err := w.tearDown(); err != nil {
		return nil, fmt.Errorf("%s: tear-down: %w", w.name(), err)
	}
	// Hygiene: nothing the workload started may outlive it.
	if leaked := awaitGoroutines(); len(leaked) > 0 {
		res.fail(fmt.Errorf("%d goroutines outlived the workload, the first: %s", len(leaked), leaked[0]))
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %.1fs", w.name(), seconds)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// setRuntimeMetrics turns the window's MemStats delta into the runtime.*
// counters. They include the harness's own verification work.
func setRuntimeMetrics(ms metricSet, ph phase) {
	ops := len(ph.outs)
	if ops == 0 {
		return
	}
	if e := ph.edges(); e > 0 {
		ms.set("runtime.alloc_bytes_per_edge", float64(ph.mem.allocBytes)/float64(e), 1)
	}
	ms.set("runtime.allocs_per_op", float64(ph.mem.mallocs)/float64(ops), ops)
	ms.set("runtime.gc_pause_ms_per_op", float64(ph.mem.pauseNS)/1e6/float64(ops), ops)
	ms.set("runtime.gc_cpu_fraction", ph.mem.gcCPUFraction, 1)
}

// awaitGoroutines waits briefly for exiting goroutines to finish and returns
// the stacks of those that remain, other than the caller's. Only goroutines
// a workload starts and must stop are looked for: this package's own, the
// HTTP stack's, the daemon's and replay sessions'. The engine's shared
// worker pool parks its goroutines for the life of the process by design.
func awaitGoroutines() []string {
	pc, _, _, _ := runtime.Caller(0)
	self := runtime.FuncForPC(pc).Name() // "<package path>.awaitGoroutines"
	owned := []string{self[:strings.LastIndex(self, ".")+1], "net/http.", "csb/internal/serve.", "csb/internal/replay."}
	deadline := time.Now().Add(3 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
		var leaked []string
		for _, st := range stacks[1:] { // the first is the caller
			if slices.ContainsFunc(owned, func(pkg string) bool { return strings.Contains(st, pkg) }) {
				leaked = append(leaked, st)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stamp records the conditions a run was measured under.
type stamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Shape      string `json:"engine_shape"`
	Sizes      sizes  `json:"sizes"`
	// Degraded marks a run on a host with fewer CPUs than pinnedProcs: its
	// numbers are not comparable with any other run.
	Degraded bool `json:"degraded"`
}

func newStamp(sz sizes) stamp {
	return stamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(),
		Shape: fmt.Sprintf("nodes=%d cores_per_node=%d", pinnedNodes, pinnedCores),
		Sizes: sz, Degraded: runtime.NumCPU() < pinnedProcs,
	}
}

// gitCommit names the measured commit, or "unknown" outside a git checkout
// (the driver's checkout is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// derive mixes the run seed with a stream tag and an index (splitmix64), so
// every spec seed is a function of --seed alone.
func derive(seed uint64, stream string, i int) uint64 {
	x := seed
	for _, b := range []byte(stream) {
		x = (x ^ uint64(b)) * 0x100000001b3
	}
	x += uint64(i+1) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
