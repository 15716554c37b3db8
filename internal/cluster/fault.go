package cluster

// fault.go is the fault-tolerance layer of the engine: Spark-style task
// attempts with panic recovery and bounded, jitter-backed retries;
// speculative duplicate attempts for stragglers; and a deterministic
// fault-injection plan for chaos testing.
//
// The determinism argument, on which everything downstream (artifact
// content addressing, the byte-identity tests of PR 1) rests:
//
//   - Every dataset operation's task builds its output locally and writes
//     it to a per-task slot as its final action, so a failed attempt leaves
//     the slot untouched and a retry recomputes the identical value from
//     the same (seed, partition) RNG stream — lineage recomputation in
//     Spark's terms. The one task that writes in place is FillGraph's: a
//     failed attempt may leave its column range partly written, but the
//     range is private to the task and the retry overwrites all of it with
//     the identical values (attempts of one task still serialize on the
//     slot lock, below), so nothing reads a torn range.
//
//   - At most one attempt per task ever executes the task closure to
//     completion: attempts serialize on the slot's commit lock and check
//     the committed flag under it, so a speculative duplicate and a slow
//     original can never double-apply or interleave a slot write.
//
//   - Which attempt wins changes only *when* the slot value is produced,
//     never *what* it is. Retries, speculation and injected faults therefore
//     perturb scheduling and timing only; Collect and Graph.Write output is
//     byte-identical to a fault-free run as long as no task exhausts its
//     retry budget.
//
//   - Fault injection is a pure function of (plan seed, stage sequence,
//     task index, attempt number). Stage sequence numbers are assigned by
//     the single orchestrating goroutine, so a chaos run replays exactly,
//     independent of MaxParallel and host speed.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Fault-tolerance defaults applied by New to zero-valued Config fields.
const (
	// DefaultMaxTaskRetries is how many times a failed task attempt is
	// retried before the stage fails the cluster (Spark's
	// spark.task.maxFailures - 1).
	DefaultMaxTaskRetries = 3
	// DefaultSpeculationQuantile is the straggler threshold: a running task
	// is duplicated once it exceeds this multiple of the median runtime of
	// the stage's completed tasks.
	DefaultSpeculationQuantile = 1.5
	// DefaultFaultDelay is the maximum injected straggler delay when a
	// FaultPlan leaves MaxDelay zero.
	DefaultFaultDelay = 2 * time.Millisecond
)

// Backoff is the one retry-wait policy of the system: the attempt-th
// consecutive retry (attempt >= 1) waits Base doubled attempt-1 times, capped
// at Cap, then jittered into [0.5, 1.5) of that by a hash of (name, attempt).
// The jitter decorrelates retry storms — parallel tasks of a stage, a fleet of
// workers or stream consumers torn by the same restart — and, being a pure
// function of its key, replays exactly. Whoever counts attempts resets the
// count once a retry makes progress, so the wait tracks consecutive failures.
type Backoff struct{ Base, Cap time.Duration }

// The three (base, cap) pairs in use.
var (
	// TaskRetryBackoff spaces the attempts of one engine task.
	TaskRetryBackoff = Backoff{Base: 2 * time.Millisecond, Cap: 250 * time.Millisecond}
	// JobRetryBackoff spaces a daemon job's build attempts.
	JobRetryBackoff = Backoff{Base: 200 * time.Millisecond, Cap: 2 * time.Second}
	// ReconnectBackoff spaces redials: a dist worker to its coordinator, a
	// stream consumer to its replay server.
	ReconnectBackoff = Backoff{Base: 200 * time.Millisecond, Cap: 5 * time.Second}
)

// Delay returns the wait before retry number attempt of whatever name
// identifies (a worker, a job, a consumer).
func (b Backoff) Delay(name string, attempt int) time.Duration {
	var h uint64
	for i := 0; i < len(name); i++ {
		h = h*0x100000001b3 ^ uint64(name[i]) // faultHash finishes the mixing
	}
	return b.delay(h, 0, attempt)
}

// delay is Delay keyed on two words, so a task's (stage, task) key needs no
// string.
func (b Backoff) delay(k1, k2 uint64, attempt int) time.Duration {
	d := b.Base
	for i := 1; i < attempt && d < b.Cap; i++ {
		d *= 2
	}
	if d > b.Cap {
		d = b.Cap
	}
	frac := 0.5 + unitFloat(faultHash(0xb5297a4d3a2d9fe1, k1, k2, uint64(attempt)))
	return time.Duration(float64(d) * frac)
}

// speculationFloor is the smallest straggler threshold the monitor applies:
// duplicating microsecond tasks costs more than it saves.
const speculationFloor = 200 * time.Microsecond

// ErrInjected is the transient error a FaultPlan injects into task attempts;
// chaos tests match it with errors.Is through the retry path.
var ErrInjected = errors.New("cluster: injected transient fault")

// StageError is the typed, terminal failure of one engine stage: a task
// whose every attempt (original plus MaxTaskRetries retries) panicked or
// failed. It is surfaced by Cluster.Err, sticks for the cluster's lifetime,
// and carries enough context to identify the failing partition task.
type StageError struct {
	// Op is the engine operation of the failed stage ("map", "generate",
	// "distinct.merge", ...).
	Op string
	// Label is the caller scope active when the stage ran (see
	// Cluster.Scope), "/"-joined.
	Label string
	// Task is the failing partition-task index within the stage.
	Task int
	// Attempts is how many attempts the task consumed before giving up.
	Attempts int
	// Cause is the recovered panic value or the error of the last attempt.
	Cause any
}

// Error implements error.
func (e *StageError) Error() string {
	scope := e.Label
	if scope == "" {
		scope = "-"
	}
	return fmt.Sprintf("cluster: stage %s (scope %s) task %d failed after %d attempt(s): %v",
		e.Op, scope, e.Task, e.Attempts, e.Cause)
}

// Unwrap exposes an error Cause to errors.Is/As chains (e.g. ErrInjected).
func (e *StageError) Unwrap() error {
	if err, ok := e.Cause.(error); ok {
		return err
	}
	return nil
}

// taskPanic wraps a recovered panic value so it can travel the attempt
// error path; StageError unwraps it back to the raw value.
type taskPanic struct{ val any }

func (p *taskPanic) Error() string { return fmt.Sprintf("task panicked: %v", p.val) }

// FaultPlan deterministically injects faults into task attempts for chaos
// testing: each (stage, task, attempt) triple hashes to at most one fault —
// a panic, a transient error, or a straggler delay. The same plan on the
// same pipeline replays the exact same fault schedule, independent of
// MaxParallel, so chaos failures reproduce under a debugger.
type FaultPlan struct {
	// Seed keys the fault hash; two plans with different seeds fault
	// different task attempts.
	Seed uint64
	// PanicRate is the probability a task attempt panics before running.
	PanicRate float64
	// ErrorRate is the probability a task attempt fails with ErrInjected.
	ErrorRate float64
	// DelayRate is the probability a task attempt is delayed (a straggler),
	// exercising the speculation path.
	DelayRate float64
	// MaxDelay bounds injected straggler delays (0 means DefaultFaultDelay).
	MaxDelay time.Duration
	// MaxFaultyAttempts, when positive, stops injecting into a task once
	// its attempt number reaches it. Setting it at or below MaxTaskRetries
	// guarantees chaos runs converge: the final attempt always runs clean.
	MaxFaultyAttempts int
}

// NewFaultPlan builds a mixed plan from one total fault rate, split 40%
// panics, 40% transient errors, 20% straggler delays — the shape the
// -fault-rate CLI flags expose.
func NewFaultPlan(seed uint64, rate float64) *FaultPlan {
	return &FaultPlan{
		Seed:      seed,
		PanicRate: 0.4 * rate,
		ErrorRate: 0.4 * rate,
		DelayRate: 0.2 * rate,
	}
}

// validate checks the plan's rates at cluster construction.
func (p *FaultPlan) validate() error {
	for _, r := range []float64{p.PanicRate, p.ErrorRate, p.DelayRate} {
		if r < 0 || r != r {
			return fmt.Errorf("cluster: fault rates must be non-negative, got %+v", *p)
		}
	}
	if sum := p.PanicRate + p.ErrorRate + p.DelayRate; sum > 1 {
		return fmt.Errorf("cluster: fault rates sum to %.3f, must not exceed 1", sum)
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("cluster: MaxDelay must be non-negative, got %v", p.MaxDelay)
	}
	return nil
}

type faultKind int

const (
	faultNone faultKind = iota
	faultPanic
	faultError
	faultDelay
)

// faultHash mixes the decision coordinates with SplitMix64 rounds.
func faultHash(seed, stage, task, attempt uint64) uint64 {
	z := seed
	for _, w := range [...]uint64{stage, task, attempt} {
		z += w + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// unitFloat maps a hash to [0, 1).
func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// decide returns the fault (if any) for one task attempt.
func (p *FaultPlan) decide(stage uint64, task, attempt int) (faultKind, time.Duration) {
	if p.MaxFaultyAttempts > 0 && attempt >= p.MaxFaultyAttempts {
		return faultNone, 0
	}
	u := unitFloat(faultHash(p.Seed, stage, uint64(task), uint64(attempt)))
	switch {
	case u < p.PanicRate:
		return faultPanic, 0
	case u < p.PanicRate+p.ErrorRate:
		return faultError, 0
	case u < p.PanicRate+p.ErrorRate+p.DelayRate:
		maxD := p.MaxDelay
		if maxD <= 0 {
			maxD = DefaultFaultDelay
		}
		frac := unitFloat(faultHash(p.Seed^0x6a09e667f3bcc909, stage, uint64(task), uint64(attempt)))
		return faultDelay, time.Duration(frac * float64(maxD))
	}
	return faultNone, 0
}

// taskAttempt is one unit of worker work: which task, which attempt in its
// chain, and whether it is a speculative duplicate.
type taskAttempt struct {
	task        int
	attempt     int
	speculative bool
}

// taskSlot is the per-task commit state of a running stage.
type taskSlot struct {
	// mu serializes closure execution across attempts of this task; the
	// committed flag under it is the double-apply guard.
	mu        sync.Mutex
	committed bool

	done       atomic.Bool  // an attempt committed (lock-free fast check)
	startNS    atomic.Int64 // wall time the first attempt started; 0 = never started
	durNS      atomic.Int64 // winning attempt's closure wall time
	speculated atomic.Bool  // a duplicate has been launched (at most one)
}

// stageRun executes one stage's tasks with retries and speculation. It is
// created, driven and discarded by runStage.
type stageRun struct {
	c          *Cluster
	op, label  string
	seq        uint64 // deterministic stage sequence for fault decisions
	n          int
	task       func(int)
	remote     *RemoteStage // non-nil when the stage's tasks are remotable
	executor   TaskExecutor // non-nil when the cluster has a remote executor
	maxRetries int
	faults     *FaultPlan

	slots []taskSlot
	// queue is buffered for the worst-case attempt count so enqueues never
	// block, even from retry timers firing after the stage ended.
	queue     chan taskAttempt
	stop      chan struct{} // closed when the stage is terminal
	stopOnce  sync.Once
	remaining atomic.Int64 // tasks not yet committed

	failMu  sync.Mutex
	failure *StageError

	// Counters folded into StageRecord/Metrics.
	attempts    atomic.Int64
	failures    atomic.Int64
	retries     atomic.Int64
	speculative atomic.Int64
	remoteRuns  atomic.Int64
}

func newStageRun(c *Cluster, op string, seq uint64, n int, task func(int), remote *RemoteStage) *stageRun {
	st := &stageRun{
		c:          c,
		op:         op,
		label:      c.currentLabel(),
		seq:        seq,
		n:          n,
		task:       task,
		remote:     remote,
		executor:   c.cfg.Executor,
		maxRetries: c.cfg.MaxTaskRetries,
		faults:     c.cfg.Faults,
		slots:      make([]taskSlot, n),
		stop:       make(chan struct{}),
	}
	st.queue = make(chan taskAttempt, n*(st.maxRetries+2))
	st.remaining.Store(int64(n))
	return st
}

// run drives the stage to a terminal state: all tasks committed, a task out
// of retries (stage failure), or the cluster context cancelled. Workers come
// from the process-wide persistent pool (see pool.go) rather than being
// spawned per stage.
func (st *stageRun) run() {
	for i := 0; i < st.n; i++ {
		st.queue <- taskAttempt{task: i}
	}
	var ctxDone <-chan struct{} // nil channel blocks forever when no context
	if ctx := st.c.cfg.Context; ctx != nil {
		ctxDone = ctx.Done()
	}
	workers := st.c.cfg.MaxParallel
	if workers > st.n {
		workers = st.n
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		sharedPool.submit(func() {
			defer wg.Done()
			for {
				select {
				case <-st.stop:
					return
				case <-ctxDone:
					return
				case att := <-st.queue:
					st.runAttempt(att)
				}
			}
		})
	}
	if st.c.cfg.Speculation && st.n > 1 {
		wg.Add(1)
		sharedPool.submit(func() {
			defer wg.Done()
			st.speculate(ctxDone)
		})
	}
	wg.Wait()
	// Unblock any retry timer that fires after the stage ended (its enqueue
	// falls into the buffered queue and is never drained — harmless).
	st.stopOnce.Do(func() { close(st.stop) })
}

// runAttempt executes one attempt and routes its outcome: commit, retry
// with backoff, or stage failure.
func (st *stageRun) runAttempt(att taskAttempt) {
	slot := &st.slots[att.task]
	if slot.done.Load() {
		return // another attempt already committed this task
	}
	st.attempts.Add(1)
	slot.startNS.CompareAndSwap(0, time.Now().UnixNano())
	err := st.execute(att, slot)
	if err == nil {
		return
	}
	st.failures.Add(1)
	if att.speculative {
		// Duplicates never retry and never fail the stage; only the original
		// attempt chain decides failure, which keeps whether a stage fails a
		// pure function of the fault plan rather than of scheduling.
		return
	}
	if att.attempt >= st.maxRetries {
		st.fail(att, err)
		return
	}
	st.retries.Add(1)
	next := taskAttempt{task: att.task, attempt: att.attempt + 1}
	time.AfterFunc(TaskRetryBackoff.delay(st.seq, uint64(next.task), next.attempt),
		func() { st.enqueue(next) })
}

// enqueue adds an attempt without ever blocking; the queue is sized for the
// worst case, so a full queue means the stage is already terminal.
func (st *stageRun) enqueue(att taskAttempt) {
	select {
	case st.queue <- att:
	default:
	}
}

// execute runs one attempt end to end: fault injection, panic recovery, and
// the slot-commit gate. A nil return means the task is committed (by this
// attempt or an earlier winner).
func (st *stageRun) execute(att taskAttempt, slot *taskSlot) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &taskPanic{val: r}
		}
	}()
	if st.faults != nil && !att.speculative {
		switch kind, d := st.faults.decide(st.seq, att.task, att.attempt); kind {
		case faultPanic:
			panic(fmt.Sprintf("injected panic (stage %d task %d attempt %d)", st.seq, att.task, att.attempt))
		case faultError:
			return fmt.Errorf("%w (stage %d task %d attempt %d)", ErrInjected, st.seq, att.task, att.attempt)
		case faultDelay:
			time.Sleep(d) // straggle, then run normally
		}
	}
	if st.remote != nil && st.executor != nil {
		handled, err := st.executeRemote(att, slot)
		if handled {
			return err
		}
		// The executor declined (no live worker); fall through to the local
		// closure so output never depends on worker availability.
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.committed {
		return nil // lost the race to a duplicate or retry; output already in place
	}
	start := time.Now()
	st.task(att.task)
	slot.durNS.Store(int64(time.Since(start)))
	slot.committed = true
	slot.done.Store(true)
	if st.remaining.Add(-1) == 0 {
		st.stopOnce.Do(func() { close(st.stop) })
	}
	return nil
}

// executeRemote dispatches one attempt through the cluster's TaskExecutor.
// The RPC waits outside the commit lock — a speculative duplicate must not
// serialize behind a hung call to a dead worker — and only the Apply of the
// returned bytes runs under it, winning or discarding exactly like a local
// closure. handled is false when the executor declined (ErrNoRemote), in
// which case the caller falls back to local execution.
func (st *stageRun) executeRemote(att taskAttempt, slot *taskSlot) (handled bool, err error) {
	ctx := st.c.cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	result, err := st.executor.ExecRemote(ctx,
		StageInfo{Op: st.op, Label: st.label, Seq: st.seq},
		AttemptInfo{Task: att.task, Attempt: att.attempt, Speculative: att.speculative},
		st.remote.Kind,
		func() []byte { return st.remote.Payload(att.task) })
	if errors.Is(err, ErrNoRemote) {
		return false, nil
	}
	if err != nil {
		return true, err
	}
	st.remoteRuns.Add(1)
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.committed {
		return true, nil // lost the commit race; the worker's bytes are discarded
	}
	if err := st.remote.Apply(att.task, result); err != nil {
		return true, err
	}
	// The recorded duration covers dispatch through apply, so the straggler
	// monitor sees remote tasks on the same clock as local ones.
	slot.durNS.Store(int64(time.Since(start)))
	slot.committed = true
	slot.done.Store(true)
	if st.remaining.Add(-1) == 0 {
		st.stopOnce.Do(func() { close(st.stop) })
	}
	return true, nil
}

// fail records the stage's terminal failure (first one wins) and stops the
// workers.
func (st *stageRun) fail(att taskAttempt, err error) {
	cause := any(err)
	var tp *taskPanic
	if errors.As(err, &tp) {
		cause = tp.val
	}
	st.failMu.Lock()
	if st.failure == nil {
		st.failure = &StageError{
			Op:       st.op,
			Label:    st.label,
			Task:     att.task,
			Attempts: att.attempt + 1,
			Cause:    cause,
		}
	}
	st.failMu.Unlock()
	st.stopOnce.Do(func() { close(st.stop) })
}

// speculate is the straggler monitor: once at least half the stage's tasks
// have committed, any running task older than DefaultSpeculationQuantile
// times the median committed runtime is duplicated (once). Whichever attempt
// reaches the commit gate first wins; the loser observes the committed flag
// and discards itself.
func (st *stageRun) speculate(ctxDone <-chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-ctxDone:
			return
		case <-tick.C:
		}
		durs := make([]time.Duration, 0, st.n)
		for i := range st.slots {
			if st.slots[i].done.Load() {
				durs = append(durs, time.Duration(st.slots[i].durNS.Load()))
			}
		}
		if len(durs) == st.n {
			return
		}
		if len(durs) < (st.n+1)/2 {
			continue // not enough samples for a meaningful median yet
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		median := durs[len(durs)/2]
		threshold := time.Duration(DefaultSpeculationQuantile * float64(median))
		if threshold < speculationFloor {
			threshold = speculationFloor
		}
		now := time.Now().UnixNano()
		for i := range st.slots {
			s := &st.slots[i]
			if s.done.Load() || s.speculated.Load() {
				continue
			}
			started := s.startNS.Load()
			if started == 0 || time.Duration(now-started) <= threshold {
				continue // queued tasks gain nothing from a duplicate
			}
			if s.speculated.CompareAndSwap(false, true) {
				st.speculative.Add(1)
				st.enqueue(taskAttempt{task: i, speculative: true})
			}
		}
	}
}
