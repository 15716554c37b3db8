package cluster

import (
	"context"
	"errors"
	"iter"
	"strings"
	"testing"
	"time"
)

func seqN(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestBackoffSchedule pins the one retry-wait policy: each (base, cap) pair
// doubles from base to cap, every wait is jittered into [0.5, 1.5) of its
// step, a key replays its own schedule exactly and two names diverge (a fleet
// must not redial in lockstep). Callers count consecutive failures, so a
// reset after progress is attempt 1 again: about base (dist
// TestWorkerBackoffResetsAfterHandshake drives that through a worker).
func TestBackoffSchedule(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Backoff
		step []time.Duration // un-jittered wait of attempt 1, 2, ...
	}{
		{"task", TaskRetryBackoff, []time.Duration{2, 4, 8, 16, 32, 64, 128, 250, 250, 250}},
		{"job", JobRetryBackoff, []time.Duration{200, 400, 800, 1600, 2000, 2000}},
		{"reconnect", ReconnectBackoff, []time.Duration{200, 400, 800, 1600, 3200, 5000, 5000}},
	} {
		for i, step := range tc.step {
			step *= time.Millisecond
			got := tc.b.Delay("w1", i+1)
			if got < step/2 || got >= step*3/2 {
				t.Errorf("%s attempt %d: wait %v outside [0.5, 1.5) of %v", tc.name, i+1, got, step)
			}
			if again := tc.b.Delay("w1", i+1); again != got {
				t.Errorf("%s attempt %d: same key waited %v then %v", tc.name, i+1, got, again)
			}
		}
	}
	// A huge attempt count neither overflows nor escapes the cap.
	if got := ReconnectBackoff.Delay("w1", 1<<30); got < ReconnectBackoff.Cap/2 || got >= ReconnectBackoff.Cap*3/2 {
		t.Errorf("attempt 2^30 waits %v, want about the %v cap", got, ReconnectBackoff.Cap)
	}
	// Jitter is keyed on the name and varies with the attempt.
	varies := false
	for attempt := 1; attempt <= 64; attempt++ {
		if ReconnectBackoff.Delay("w1", attempt) == ReconnectBackoff.Delay("w2", attempt) {
			t.Errorf("attempt %d: two workers computed the identical wait", attempt)
		}
		// At the cap the step is constant, so any difference is the jitter.
		if attempt > 8 && ReconnectBackoff.Delay("w1", attempt) != ReconnectBackoff.Delay("w1", attempt+1) {
			varies = true
		}
	}
	if !varies {
		t.Error("one worker's jitter never varies across attempts")
	}
	// Parallel tasks of one stage decorrelate the same way.
	if TaskRetryBackoff.delay(7, 0, 1) == TaskRetryBackoff.delay(7, 1, 1) {
		t.Error("two tasks of a stage computed the identical wait")
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{PanicRate: -0.1},
		{PanicRate: 0.5, ErrorRate: 0.4, DelayRate: 0.2}, // sums to 1.1
	}
	for i, p := range bad {
		if _, err := New(Config{Nodes: 1, CoresPerNode: 1, Faults: &p}); err == nil {
			t.Errorf("plan %d accepted: %+v", i, p)
		}
	}
	good := NewFaultPlan(1, 0.2)
	if _, err := New(Config{Nodes: 1, CoresPerNode: 1, Faults: good}); err != nil {
		t.Errorf("NewFaultPlan(1, 0.2) rejected: %v", err)
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	p := NewFaultPlan(7, 0.5)
	for stage := uint64(1); stage <= 4; stage++ {
		for task := 0; task < 16; task++ {
			k1, d1 := p.decide(stage, task, 0)
			k2, d2 := p.decide(stage, task, 0)
			if k1 != k2 || d1 != d2 {
				t.Fatalf("decide(%d,%d,0) not stable: (%v,%v) vs (%v,%v)", stage, task, k1, d1, k2, d2)
			}
		}
	}
}

// TestRetriesRecoverInjectedFaults drives a map pipeline through a plan
// aggressive enough to fault most tasks at least once; retries must absorb
// every fault and the output must match the fault-free run exactly.
func TestRetriesRecoverInjectedFaults(t *testing.T) {
	clean := Collect(Map(Parallelize(Local(4), seqN(500), 8), func(x int) int { return x * x }))

	faults := &FaultPlan{Seed: 3, PanicRate: 0.3, ErrorRate: 0.3}
	c := MustNew(Config{
		Nodes: 1, CoresPerNode: 4, MaxParallel: 4,
		MaxTaskRetries: 5,
		Faults:         faults,
	})
	got := Collect(Map(Parallelize(c, seqN(500), 8), func(x int) int { return x * x }))
	if err := c.Err(); err != nil {
		t.Fatalf("cluster failed despite retry budget: %v", err)
	}
	if len(got) != len(clean) {
		t.Fatalf("chaos run produced %d elements, want %d", len(got), len(clean))
	}
	for i := range got {
		if got[i] != clean[i] {
			t.Fatalf("element %d = %d, want %d", i, got[i], clean[i])
		}
	}
	m := c.Metrics()
	if m.TaskFailures == 0 || m.TaskRetries == 0 {
		t.Fatalf("no faults observed under 60%% fault rate: %+v", m)
	}
}

// TestExhaustedRetriesFailTyped asserts the clean-failure contract: a task
// whose every attempt panics surfaces as *StageError from Err, later stages
// refuse to run, and the process never crashes.
func TestExhaustedRetriesFailTyped(t *testing.T) {
	c := MustNew(Config{
		Nodes: 1, CoresPerNode: 2, MaxParallel: 2,
		MaxTaskRetries: 2,
	})
	defer c.Scope("doomed")()
	d := Map(Parallelize(c, seqN(40), 4), func(x int) int {
		if x == 17 {
			panic("poison element")
		}
		return x
	})
	_ = Collect(d)

	err := c.Err()
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("Err = %v (%T), want *StageError", err, err)
	}
	if se.Op != "map" {
		t.Errorf("Op = %q, want map", se.Op)
	}
	if se.Label != "doomed" {
		t.Errorf("Label = %q, want doomed", se.Label)
	}
	if se.Attempts != 3 { // original + 2 retries
		t.Errorf("Attempts = %d, want 3", se.Attempts)
	}
	if se.Cause != "poison element" {
		t.Errorf("Cause = %v, want recovered panic value", se.Cause)
	}
	if !strings.Contains(se.Error(), "map") || !strings.Contains(se.Error(), "poison element") {
		t.Errorf("Error() = %q lacks context", se.Error())
	}

	// Failure is sticky: subsequent stages no-op and Err stays the same.
	before := c.Metrics().Stages
	if got := Collect(Map(Parallelize(c, seqN(10), 2), func(x int) int { return x + 1 })); len(got) != 0 {
		t.Fatalf("post-failure stage produced %d elements", len(got))
	}
	if c.Metrics().Stages != before {
		t.Fatal("post-failure stage was recorded")
	}
	if c.Err() != err {
		t.Fatalf("failure not sticky: %v then %v", err, c.Err())
	}
}

// TestInjectedErrorUnwraps checks errors.Is reaches ErrInjected through the
// StageError chain when a transient fault exhausts the budget.
func TestInjectedErrorUnwraps(t *testing.T) {
	c := MustNew(Config{
		Nodes: 1, CoresPerNode: 1, MaxParallel: 1,
		MaxTaskRetries: -1, // attempts are final
		Faults:         &FaultPlan{Seed: 11, ErrorRate: 1},
	})
	_ = Collect(Map(Parallelize(c, seqN(4), 2), func(x int) int { return x }))
	if err := c.Err(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Err = %v, want wrapped ErrInjected", err)
	}
}

// TestSerialPanicContained asserts driver-side serial sections fail the
// cluster typed instead of crashing.
func TestSerialPanicContained(t *testing.T) {
	c := Local(2)
	c.runSerial("merge", func() { panic("serial boom") })
	var se *StageError
	if err := c.Err(); !errors.As(err, &se) || se.Op != "merge" || se.Cause != "serial boom" {
		t.Fatalf("Err = %v, want *StageError{Op: merge}", err)
	}
	// A failed cluster skips later serial sections too.
	ran := false
	c.runSerial("after", func() { ran = true })
	if ran {
		t.Fatal("serial section ran on failed cluster")
	}
}

// TestCancelledStageStatsExcludeUnstartedTasks is the satellite fix: tasks a
// cancelled worker never picked up must not appear as zero-duration samples
// in the stage stats, and Metrics.Tasks must count only executed tasks.
func TestCancelledStageStatsExcludeUnstartedTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := NewTracer()
	c := MustNew(Config{
		Nodes: 1, CoresPerNode: 1, MaxParallel: 1,
		Tracer: tr, Context: ctx,
	})
	ran := 0
	c.runStage(stageSpec{op: "test"}, 8, func(i int) {
		ran++
		time.Sleep(2 * time.Millisecond) // simulated work: TaskMin reads only its lower bound
		if ran == 2 {
			cancel() // remaining tasks never start
		}
	})
	m := c.Metrics()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("stage spans = %+v", spans)
	}
	rec := spans[0]
	if rec.Tasks != 8 {
		t.Errorf("Tasks = %d, want stage size 8", rec.Tasks)
	}
	if m.Tasks != int64(ran) {
		t.Errorf("Metrics.Tasks = %d, want %d executed", m.Tasks, ran)
	}
	if rec.TaskMin < time.Millisecond {
		t.Errorf("TaskMin = %v includes unstarted tasks", rec.TaskMin)
	}
	if rec.Skew > 3 {
		t.Errorf("Skew = %.2f distorted by phantom zero-duration tasks", rec.Skew)
	}
}

// TestChaosMatrixByteIdenticalPipeline runs a shuffle pipeline (mapPartitions
// + distinct + map) across fault rates and parallelism and asserts
// the collected output never changes — the engine-level half of the
// determinism acceptance criterion (the generator-level half lives in
// internal/core). It also checks that only retry chains launch attempts:
// every stage of a run that did not fail ran each task once plus once per
// retry.
func TestChaosMatrixByteIdenticalPipeline(t *testing.T) {
	run := func(rate float64, maxPar int) []int {
		tr := NewTracer()
		cfg := Config{
			Nodes: 2, CoresPerNode: 2, MaxParallel: maxPar,
			MaxTaskRetries: 8, Tracer: tr,
		}
		if rate > 0 {
			cfg.Faults = NewFaultPlan(99, rate)
		}
		c := MustNew(cfg)
		data := Parallelize(c, seqN(3*blockSize+500), 0)
		dup := MapBlocks(data, "mapBlocks", 5, func(n int, runs iter.Seq[Run[int]]) []int {
			out := make([]int, 0, 2*n)
			for r := range runs {
				for _, x := range r.Xs {
					out = append(out, x%997)
					if r.RNG.IntN(2) == 1 {
						out = append(out, x%997)
					}
				}
			}
			return out
		})
		distinct := Distinct(dup, func(x int) int { return x }, func(k int) uint64 { return uint64(k) * 0x9e3779b9 })
		squared := Map(distinct, func(x int) int { return x*x + 1 })
		out := Collect(squared)
		if err := c.Err(); err != nil {
			t.Fatalf("rate %.2f par %d failed: %v", rate, maxPar, err)
		}
		for _, s := range tr.Spans() {
			if s.Attempts != s.Tasks+s.Retries {
				t.Fatalf("rate %.2f par %d: stage %s ran %d attempts for %d tasks and %d retries",
					rate, maxPar, s.Op, s.Attempts, s.Tasks, s.Retries)
			}
		}
		return out
	}
	want := run(0, 1)
	for _, rate := range []float64{0, 0.05, 0.2} {
		for _, par := range []int{1, 4} {
			got := run(rate, par)
			if len(got) != len(want) {
				t.Fatalf("rate %.2f par %d: %d elements, want %d", rate, par, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("rate %.2f par %d: element %d = %d, want %d", rate, par, i, got[i], want[i])
				}
			}
		}
	}
}
