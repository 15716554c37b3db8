package cluster

// pool.go is the persistent worker pool behind every engine stage. Before
// the hot-path pass each stage spawned (and discarded) min(MaxParallel,
// tasks) goroutines; a generator run
// executes thousands of stages, so the engine was paying a goroutine launch
// and teardown per worker per stage for bodies that often run microseconds.
// The pool keeps finished workers parked on a LIFO free list and hands them
// the next stage's work instead.
//
// Design constraints, in order:
//
//   - submit must never block and never queue behind a busy worker: stage
//     concurrency is decided by the caller (MaxParallel), not by the pool.
//     When no parked worker is free a new one is spawned, so the pool's
//     size floats to the peak concurrency ever requested and correctness
//     never depends on pool capacity (no lost wakeups, no deadlocks when
//     several clusters share the process, as csbd's job workers do).
//
//   - LIFO reuse keeps recently active workers (and their already-grown
//     stacks) warm; the cold tail just stays parked on its own channel at
//     ~4 KiB a goroutine, bounded by the most stage workers the process
//     ever ran at once.
//
//   - Channel handoff provides the happens-before edge between one stage's
//     writes and the next stage's reads on a reused worker, so the race
//     detector and the memory model see exactly what fresh goroutines gave.

import (
	"sync"
	"sync/atomic"
)

// poolWorker is one parked goroutine: it waits on its private channel for
// the next closure to run.
type poolWorker struct {
	work chan func()
}

// workerPool is a grow-on-demand goroutine pool (see the file comment for
// the contract). The zero value is ready to use.
type workerPool struct {
	mu   sync.Mutex
	idle []*poolWorker

	// Counters for tests and observability; they do not affect behavior.
	spawned atomic.Int64 // workers ever created
	reused  atomic.Int64 // submissions served by a parked worker
}

// sharedPool serves every cluster in the process. Sharing across clusters is
// what makes the pool effective for the benchmark harness and csbd, which
// build short-lived clusters by the hundred.
var sharedPool workerPool

// submit runs fn on a pooled goroutine, reusing a parked worker when one is
// free and spawning a new one otherwise. It never blocks.
func (p *workerPool) submit(fn func()) {
	p.mu.Lock()
	var w *poolWorker
	if n := len(p.idle); n > 0 {
		w = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if w != nil {
		p.reused.Add(1)
		w.work <- fn
		return
	}
	p.spawned.Add(1)
	w = &poolWorker{work: make(chan func(), 1)}
	w.work <- fn
	go w.loop(p)
}

// loop is the body of a pooled goroutine: run a closure, park, repeat. A
// worker parks itself only after its closure returns, so the idle list holds
// exclusively quiescent workers.
func (w *poolWorker) loop(p *workerPool) {
	for fn := range w.work {
		fn()
		p.mu.Lock()
		p.idle = append(p.idle, w)
		p.mu.Unlock()
	}
}

// stats snapshots the pool counters (test hook).
func (p *workerPool) stats() (spawned, reused int64) {
	return p.spawned.Load(), p.reused.Load()
}
