// Package cluster is the distributed-execution substrate of csb: a
// Spark-like engine over partitioned in-memory datasets with the operations
// the paper's generators need (map, filter, sample, distinct, reduce).
//
// The paper runs on Apache Spark over 60 physical nodes. This package
// substitutes that testbed with a two-level model:
//
//   - Real execution: every partition task actually runs, on a goroutine
//     worker pool bounded by MaxParallel (defaults to GOMAXPROCS). Results
//     are therefore real, not simulated. MaxParallel is the only thing here
//     that reads the host. Neither it nor placement (Nodes, CoresPerNode and
//     the partition count) changes output: every draw is keyed to a fixed
//     block of the element index (see blockSize).
//
//   - Virtual time: each task's wall time is measured, and every stage's
//     tasks are placed onto Nodes*CoresPerNode virtual cores by an LPT
//     (longest processing time first) scheduler. The resulting per-stage
//     makespans accumulate into Metrics.Makespan, which is the execution
//     time a cluster of that shape would observe. Strong-scaling studies
//     (Figure 12) sweep Nodes while the physical host stays fixed.
//
// Serial sections (like the global merge of Distinct, Spark's shuffle) are
// charged to every virtual core, which is what makes speedup curves bend
// away from ideal exactly as the paper observes for PGSK.
package cluster

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes the (possibly virtual) cluster topology.
type Config struct {
	// Nodes is the number of simulated compute nodes and CoresPerNode the
	// cores each offers; 0 means 1. Both are placement and never change
	// output bytes.
	Nodes        int
	CoresPerNode int
	// DefaultPartitions is the partition count used when an operation is
	// asked for 0 partitions, and the task cap of every drawing stage.
	// Following the paper's tuning, it defaults to 2x the total executor
	// cores. Like the shape, it is placement.
	DefaultPartitions int
	// MaxParallel bounds real OS-level parallelism (0 means GOMAXPROCS). It
	// never changes output bytes.
	MaxParallel int
	// Tracer, when non-nil, receives every stage span this cluster executes.
	// One Tracer may be shared by several clusters; each gets its own trace
	// lane.
	Tracer *Tracer
	// Context, when non-nil, bounds every stage this cluster executes: once
	// it is cancelled (or its deadline passes), running stages stop picking
	// up new partition tasks and Err reports the cause. Pipelines check Err
	// between stages, so a cancelled generation stops between tasks instead
	// of running to completion. Nil means context.Background (never done).
	Context context.Context
	// MaxTaskRetries is how many times a failed task attempt (panic or
	// injected fault) is re-executed before the stage fails the cluster with
	// a *StageError. 0 means DefaultMaxTaskRetries; negative disables
	// retries (every attempt is final), mirroring Spark's
	// spark.task.maxFailures.
	MaxTaskRetries int
	// Faults, when non-nil, deterministically injects panics, transient
	// errors and straggler delays into task attempts for chaos testing. It
	// never alters committed output, only the attempt schedule.
	Faults *FaultPlan
	// Executor, when non-nil, receives every attempt of stages that declare
	// a RemoteStage and may run them in another process (see executor.go).
	// Where an attempt executes never changes committed bytes, so Executor —
	// like the fault knobs above — is not part of artifact identity.
	Executor TaskExecutor
}

// StageRecord is one executed stage span: what operation ran, under which
// caller-propagated label, how its tasks behaved, and what it cost in real
// and virtual time. It is streamed to Config.Tracer when one is attached.
type StageRecord struct {
	Seq    int64  // 1-based stage sequence number within the cluster
	Op     string // engine operation ("map", "distinct.merge", "shuffle.coord", ...)
	Label  string // caller scope at execution time (see Cluster.Scope), "/"-joined
	Tasks  int
	Serial bool
	// Virtual-time accounting.
	Work     time.Duration // summed task wall time
	Makespan time.Duration // LPT makespan on the virtual cores
	// Real-time accounting (host wall clock).
	Start time.Duration // offset of the stage start from cluster creation
	Real  time.Duration // host wall time of the whole stage
	// Per-task distribution, after weight apportioning when weights were
	// given — so Skew reflects data skew, not timer noise.
	TaskMin  time.Duration
	TaskMax  time.Duration
	TaskMean time.Duration
	Skew     float64 // TaskMax / TaskMean; 1.0 is perfectly balanced
	// Data movement, estimated from element sizes (the Figure 11 model).
	BytesIn  int64
	BytesOut int64
	// Fault-tolerance accounting.
	Attempts       int // task attempts launched (>= Tasks when anything retried)
	Retries        int // re-attempts scheduled after failed attempts
	FailedAttempts int // attempts that panicked or returned an injected fault
	Remote         int // attempts that executed on a remote worker
}

// DefaultPlatformOverheadBytes is the fixed per-node memory overhead charged
// by the platform (Spark's baseline footprint in the paper, visible as the
// flat left region of Figure 11): the paper observes ~10 GB on 512 GB nodes;
// scaled to laptop-size experiments this is 64 MiB.
const DefaultPlatformOverheadBytes = 64 << 20

// shuffleCoordPerPartition is the serial coordination cost charged per
// partition for every shuffle (Distinct): the driver-side bookkeeping that
// keeps shuffle-heavy pipelines slightly below ideal speedup as partition
// counts grow. Far below a real Spark driver's, so it bounds rather than
// dominates.
const shuffleCoordPerPartition = 300 * time.Nanosecond

// Metrics accumulates the virtual-time and memory accounting of a cluster.
type Metrics struct {
	// Stages is the number of executed stages.
	Stages int64
	// Tasks is the number of executed partition tasks.
	Tasks int64
	// TotalWork is the summed wall time of all tasks (CPU-seconds of work).
	TotalWork time.Duration
	// Makespan is the simulated execution time on Nodes*CoresPerNode cores.
	Makespan time.Duration
	// SerialTime is the portion of Makespan spent in serial sections.
	SerialTime time.Duration
	// PeakBytesPerNode is the maximum simultaneous dataset footprint
	// charged to one node (including platform overhead).
	PeakBytesPerNode int64
	// TaskRetries counts re-attempts scheduled after failed task attempts.
	TaskRetries int64
	// TaskFailures counts attempts that panicked or hit an injected fault
	// (including ones later recovered by a retry).
	TaskFailures int64
	// RemoteTasks counts task attempts executed on a remote worker via the
	// configured TaskExecutor.
	RemoteTasks int64
}

// Cluster executes dataset operations. Create with New; safe for use from a
// single orchestrating goroutine (the operations themselves parallelize
// internally).
type Cluster struct {
	cfg      Config
	epoch    time.Time // creation time; stage Start offsets are relative to it
	tracerID int       // lane id assigned by cfg.Tracer, when attached

	// execSeq numbers stages as they start executing; assigned by the single
	// orchestrator goroutine, so it is deterministic for a given pipeline and
	// keys the FaultPlan's replayable fault decisions.
	execSeq atomic.Uint64

	mu      sync.Mutex
	metrics Metrics
	labels  []string    // active Scope stack, joined into StageRecord.Label
	failure *StageError // first stage failure; sticky, surfaced by Err
}

// New validates cfg, fills defaults and returns a Cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 0 {
		return nil, fmt.Errorf("cluster: Nodes must not be negative, got %d", cfg.Nodes)
	}
	if cfg.CoresPerNode < 0 {
		return nil, fmt.Errorf("cluster: CoresPerNode must not be negative, got %d", cfg.CoresPerNode)
	}
	// An unset shape is 1 x 1, not the host's core count.
	cfg.Nodes = max(cfg.Nodes, 1)
	cfg.CoresPerNode = max(cfg.CoresPerNode, 1)
	if cfg.DefaultPartitions == 0 {
		cfg.DefaultPartitions = 2 * cfg.Nodes * cfg.CoresPerNode
	}
	if cfg.DefaultPartitions < 0 {
		return nil, fmt.Errorf("cluster: DefaultPartitions must be positive")
	}
	if cfg.MaxParallel == 0 {
		cfg.MaxParallel = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxParallel < 0 {
		return nil, fmt.Errorf("cluster: MaxParallel must be positive")
	}
	if cfg.MaxTaskRetries == 0 {
		cfg.MaxTaskRetries = DefaultMaxTaskRetries
	} else if cfg.MaxTaskRetries < 0 {
		cfg.MaxTaskRetries = 0 // explicit opt-out: attempts are final
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(); err != nil {
			return nil, err
		}
	}
	c := &Cluster{cfg: cfg, epoch: time.Now()}
	if cfg.Tracer != nil {
		c.tracerID = cfg.Tracer.register()
	}
	return c, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Local returns a single-node cluster of maxParallel cores, running on as
// many real ones: the configuration of the single-node experiments.
// Local(0) is the default engine — New's 1 x 1 placement, parallelism up to
// GOMAXPROCS.
func Local(maxParallel int) *Cluster {
	maxParallel = max(maxParallel, 0)
	return MustNew(Config{CoresPerNode: maxParallel, MaxParallel: maxParallel})
}

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Err reports whether the cluster must stop: nil while execution may
// continue; a *StageError once a stage exhausted a task's retry budget (the
// failure is sticky — later stages refuse to run); or the bounding Context's
// error (context.Canceled or context.DeadlineExceeded) once it has ended.
// Engine stages poll it between partition tasks; generator pipelines poll it
// between stages and propagate the error to their caller.
func (c *Cluster) Err() error {
	c.mu.Lock()
	failed := c.failure
	c.mu.Unlock()
	if failed != nil {
		return failed
	}
	if c.cfg.Context == nil {
		return nil
	}
	return c.cfg.Context.Err()
}

// fail records the cluster's first stage failure; later failures (from
// stages already in flight) are dropped, so Err is stable once set.
func (c *Cluster) fail(e *StageError) {
	c.mu.Lock()
	if c.failure == nil {
		c.failure = e
	}
	c.mu.Unlock()
}

// currentLabel snapshots the "/"-joined Scope stack.
func (c *Cluster) currentLabel() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.labels, "/")
}

// VirtualCores returns Nodes * CoresPerNode.
func (c *Cluster) VirtualCores() int { return c.cfg.Nodes * c.cfg.CoresPerNode }

// Metrics returns a snapshot of the accumulated metrics.
func (c *Cluster) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics
}

// Scope pushes a label segment onto the cluster's stage-label stack and
// returns the function that pops it. Every stage executed while the segment
// is active records the "/"-joined stack as its Label, so generator
// pipelines can name their phases:
//
//	defer c.Scope("pgpba")()
//	...
//	end := c.Scope("round1")
//	edges = cluster.Union(edges, grow(sampled)) // spans labeled "pgpba/round1"
//	end()
//
// Scopes follow the single-orchestrator contract of Cluster: push and pop
// from the goroutine driving the pipeline.
func (c *Cluster) Scope(label string) func() {
	c.mu.Lock()
	c.labels = append(c.labels, label)
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		if n := len(c.labels); n > 0 {
			c.labels = c.labels[:n-1]
		}
		c.mu.Unlock()
	}
}

// stageSpec names and sizes one engine stage for the span accounting.
type stageSpec struct {
	op       string       // engine operation name
	weights  []int64      // optional per-task weights (element counts)
	bytesIn  int64        // estimated input footprint
	bytesOut func() int64 // evaluated after the tasks complete; nil means 0
	remote   *RemoteStage // non-nil when tasks can run in another process
}

// runStage executes nTasks tasks on the real worker pool, measures each, and
// charges the stage's LPT makespan over the virtual cores. Execution is
// fault-tolerant: each task runs as a chain of attempts with panic recovery
// and bounded retries, plus optional injected faults (see fault.go). A task
// out of retries fails the cluster via a sticky *StageError; a cancelled or
// already-failed cluster skips the stage entirely, leaving its output
// partitions empty.
//
// When spec.weights is set (typically the partition element counts), the
// stage's summed wall time is apportioned to tasks proportionally to their
// weights before the LPT placement: total cost stays real and data skew is
// respected, but per-task timer noise (a GC pause landing inside one
// microsecond task) no longer distorts the virtual makespan. Without
// weights, the raw per-task measurements are used. Both paths consider only
// committed tasks, so a stage cut short by cancellation or failure does not
// drag zero-duration phantom tasks into the stats.
func (c *Cluster) runStage(spec stageSpec, nTasks int, task func(i int)) {
	if nTasks == 0 || c.Err() != nil {
		return
	}
	realStart := time.Now()
	st := newStageRun(c, spec.op, c.execSeq.Add(1), nTasks, task, spec.remote)
	st.run()
	if st.failure != nil {
		c.fail(st.failure)
	}

	// Stats over the committed subset only (satellite fix: a worker exiting
	// early on cancellation must not contribute zero durations).
	executed := make([]int, 0, nTasks)
	durations := make([]time.Duration, 0, nTasks)
	var total time.Duration
	for i, d := range st.durs {
		if d != 0 {
			executed = append(executed, i)
			durations = append(durations, d)
			total += d
		}
	}
	if spec.weights != nil && len(spec.weights) == nTasks && len(executed) > 0 {
		var sumW int64
		for _, i := range executed {
			sumW += spec.weights[i]
		}
		if sumW > 0 {
			for j, i := range executed {
				durations[j] = time.Duration(float64(total) * float64(spec.weights[i]) / float64(sumW))
			}
		} else {
			for j := range durations {
				durations[j] = total / time.Duration(len(executed))
			}
		}
	}
	span := lptMakespan(durations, c.VirtualCores())
	var bytesOut int64
	if spec.bytesOut != nil {
		bytesOut = spec.bytesOut()
	}
	rec := StageRecord{
		Op:             spec.op,
		Tasks:          nTasks,
		Work:           total,
		Makespan:       span,
		Start:          realStart.Sub(c.epoch),
		Real:           time.Since(realStart),
		BytesIn:        spec.bytesIn,
		BytesOut:       bytesOut,
		Attempts:       int(st.attempts.Load()),
		Retries:        int(st.retries.Load()),
		FailedAttempts: int(st.failures.Load()),
		Remote:         int(st.remoteRuns.Load()),
	}
	rec.TaskMin, rec.TaskMax, rec.TaskMean, rec.Skew = taskStats(durations)
	c.commit(rec, func(m *Metrics) {
		m.Tasks += int64(len(executed))
		m.TotalWork += total
		m.Makespan += span
		m.TaskRetries += int64(rec.Retries)
		m.TaskFailures += int64(rec.FailedAttempts)
		m.RemoteTasks += int64(rec.Remote)
	})
}

// runSerial executes fn as a serial section: its wall time is charged to the
// makespan in full (every virtual core waits), modelling shuffles and
// driver-side merges. Serial sections are not retried — they are single
// global merges whose inputs a retry would consume twice — but a panic is
// still contained: it fails the cluster with a *StageError instead of
// crashing the process.
func (c *Cluster) runSerial(op string, fn func()) {
	if c.Err() != nil {
		return
	}
	realStart := time.Now()
	var panicked any
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = r
			}
		}()
		fn()
	}()
	if panicked != nil {
		c.fail(&StageError{Op: op, Label: c.currentLabel(), Task: 0, Attempts: 1, Cause: panicked})
		return
	}
	d := time.Since(realStart)
	rec := StageRecord{
		Op: op, Tasks: 1, Serial: true,
		Work: d, Makespan: d,
		Start: realStart.Sub(c.epoch), Real: d,
		TaskMin: d, TaskMax: d, TaskMean: d, Skew: 1,
		Attempts: 1,
	}
	c.commit(rec, func(m *Metrics) {
		m.Tasks++
		m.TotalWork += d
		m.Makespan += d
		m.SerialTime += d
	})
}

// chargeShuffleCoord charges the serial shuffle-coordination cost for a
// shuffle over p partitions without executing anything.
func (c *Cluster) chargeShuffleCoord(p int) {
	d := time.Duration(p) * shuffleCoordPerPartition
	now := time.Now()
	rec := StageRecord{
		Op: "shuffle.coord", Tasks: 0, Serial: true,
		Makespan: d,
		Start:    now.Sub(c.epoch),
	}
	c.commit(rec, func(m *Metrics) {
		m.Makespan += d
		m.SerialTime += d
	})
}

// commit stamps rec with its sequence number and label, folds the stage into
// the metrics under the lock, and forwards the span to the tracer.
func (c *Cluster) commit(rec StageRecord, fold func(m *Metrics)) {
	c.mu.Lock()
	c.metrics.Stages++
	rec.Seq = c.metrics.Stages
	rec.Label = strings.Join(c.labels, "/")
	fold(&c.metrics)
	c.mu.Unlock()
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.add(c.tracerID, c.epoch.Add(rec.Start), rec)
	}
}

// taskStats summarizes a stage's per-task durations.
func taskStats(durations []time.Duration) (min, max, mean time.Duration, skew float64) {
	if len(durations) == 0 {
		return 0, 0, 0, 0
	}
	min = durations[0]
	var total time.Duration
	for _, d := range durations {
		total += d
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	mean = total / time.Duration(len(durations))
	if mean > 0 {
		skew = float64(max) / float64(mean)
	}
	return min, max, mean, skew
}

// chargeMemory records the footprint of live bytes spread across the nodes.
func (c *Cluster) chargeMemory(liveBytes int64) {
	perNode := liveBytes/int64(c.cfg.Nodes) + DefaultPlatformOverheadBytes
	c.mu.Lock()
	if perNode > c.metrics.PeakBytesPerNode {
		c.metrics.PeakBytesPerNode = perNode
	}
	c.mu.Unlock()
}

// lptMakespan assigns task durations to cores longest-first, each to the
// least-loaded core, and returns the maximum core load — the classic LPT
// approximation of the optimal schedule.
func lptMakespan(durations []time.Duration, cores int) time.Duration {
	if len(durations) == 0 {
		return 0
	}
	if cores < 1 {
		cores = 1
	}
	sorted := append([]time.Duration(nil), durations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	if cores > len(sorted) {
		cores = len(sorted)
	}
	h := make(loadHeap, cores)
	heap.Init(&h)
	for _, d := range sorted {
		h[0] += d
		heap.Fix(&h, 0)
	}
	var maxLoad time.Duration
	for _, l := range h {
		if l > maxLoad {
			maxLoad = l
		}
	}
	return maxLoad
}

// loadHeap is a min-heap of virtual core loads.
type loadHeap []time.Duration

func (h loadHeap) Len() int            { return len(h) }
func (h loadHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h loadHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *loadHeap) Push(x interface{}) { *h = append(*h, x.(time.Duration)) }
func (h *loadHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
