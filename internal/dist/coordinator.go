package dist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"csb/internal/cluster"
)

// Coordinator defaults applied by NewCoordinator to zero-valued Config
// fields.
const (
	// DefaultHeartbeatInterval is how often a worker heartbeats.
	DefaultHeartbeatInterval = 500 * time.Millisecond
	// DefaultHeartbeatTimeout is the liveness deadline: a worker whose
	// connection stays silent this long is declared lost and its in-flight
	// tasks fail into the engine's retry path.
	DefaultHeartbeatTimeout = 3 * time.Second
	// DefaultTaskTimeout bounds one remote task dispatch end to end.
	DefaultTaskTimeout = 2 * time.Minute
	// DefaultWriteTimeout bounds one frame write.
	DefaultWriteTimeout = 10 * time.Second
	// DefaultBreakerTrips is how many consecutive task failures open a
	// worker's circuit breaker (unrouted until the cooldown passes).
	DefaultBreakerTrips = 5
	// DefaultBreakerCooldown is how long an open breaker keeps a worker out
	// of the ring before probation re-admits it.
	DefaultBreakerCooldown = 10 * time.Second
	// maxTombstones bounds the lost-worker history kept for /workers.
	maxTombstones = 32
)

// Config parameterizes a Coordinator.
type Config struct {
	// Addr is the TCP listen address for worker registration (e.g.
	// "127.0.0.1:9444"; ":0" picks a free port, see Coordinator.Addr).
	Addr string
	// HeartbeatTimeout is the worker liveness deadline (0 means
	// DefaultHeartbeatTimeout). It doubles as the per-read deadline of the
	// worker connection — a healthy worker heartbeats well inside it.
	HeartbeatTimeout time.Duration
	// TaskTimeout bounds one remote task dispatch (0 means
	// DefaultTaskTimeout).
	TaskTimeout time.Duration
	// WriteTimeout bounds one frame write (0 means DefaultWriteTimeout).
	WriteTimeout time.Duration
	// Listener, when non-nil, is used instead of listening on Addr — the
	// seam tests and the -chaos-net flag use to interpose a chaosnet fault
	// proxy under the CSBD1 wire layer. The coordinator takes ownership.
	Listener net.Listener
	// BreakerTrips is how many consecutive task failures evict a flapping
	// worker from the routing ring (0 means DefaultBreakerTrips; negative
	// disables the circuit breaker).
	BreakerTrips int
	// BreakerCooldown is how long an open breaker holds before the worker
	// is re-admitted on probation (0 means DefaultBreakerCooldown). One
	// more failure on probation re-opens it; one success closes it fully.
	BreakerCooldown time.Duration
	// Logf, when non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

// WorkerInfo is one worker's registration snapshot, served by the /workers
// endpoint and folded into /metrics.
type WorkerInfo struct {
	ID   uint64 `json:"id"`
	Name string `json:"name"`
	Addr string `json:"addr"`
	Live bool   `json:"live"`
	// HeartbeatAgeMS is the time since the last heartbeat, in milliseconds
	// (live workers only).
	HeartbeatAgeMS int64 `json:"heartbeat_age_ms"`
	TasksDone      int64 `json:"tasks_done"`
	TasksFailed    int64 `json:"tasks_failed"`
	// Breaker is the worker's routing health: "closed" (routable), "open"
	// (evicted after BreakerTrips consecutive failures), "probation"
	// (re-admitted after cooldown, one failure from re-opening), or
	// "draining" (graceful shutdown announced; unrouted).
	Breaker string `json:"breaker"`
	// BreakerTrips is the current consecutive-failure count.
	BreakerTrips int `json:"breaker_trips"`
}

// rpcReply is one matched response frame.
type rpcReply struct {
	typ     byte
	payload []byte
}

// workerConn is the coordinator-side state of one registered worker.
type workerConn struct {
	id   uint64
	name string
	addr string
	wc   *wireConn

	lastBeat    atomic.Int64 // unix nanos of the last heartbeat (or hello)
	tasksDone   atomic.Int64
	tasksFailed atomic.Int64

	pmu     sync.Mutex
	pending map[uint64]chan rpcReply
	gone    bool

	// Circuit-breaker and drain state, guarded by the coordinator's mutex
	// (it moves with ring membership, which the same mutex guards).
	trips     int       // consecutive task failures
	open      bool      // breaker open: out of the ring until openUntil
	probation bool      // re-admitted; one failure from re-opening
	openUntil time.Time // cooldown expiry while open
	draining  bool      // graceful drain announced; out of the ring for good
}

// registerPending allocates the reply channel for a request id. It fails
// once the worker is dropped, so no dispatch can race a dead connection.
func (w *workerConn) registerPending(req uint64) (chan rpcReply, error) {
	w.pmu.Lock()
	defer w.pmu.Unlock()
	if w.gone {
		return nil, fmt.Errorf("dist: worker %s is gone", w.name)
	}
	ch := make(chan rpcReply, 1)
	w.pending[req] = ch
	return ch, nil
}

// unregisterPending abandons a request (timeout, cancellation).
func (w *workerConn) unregisterPending(req uint64) {
	w.pmu.Lock()
	delete(w.pending, req)
	w.pmu.Unlock()
}

// deliver hands a response frame to its waiter, if any.
func (w *workerConn) deliver(f frame) {
	w.pmu.Lock()
	ch := w.pending[f.req]
	delete(w.pending, f.req)
	w.pmu.Unlock()
	if ch != nil {
		ch <- rpcReply{typ: f.typ, payload: f.payload}
	}
}

// Coordinator registers workers, dispatches remotable engine tasks to them,
// and detects their loss. It implements cluster.TaskExecutor; wire it into
// an engine via cluster.Config.Executor. Create with NewCoordinator, stop
// with Close.
type Coordinator struct {
	cfg Config
	ln  net.Listener
	wg  sync.WaitGroup

	mu      sync.Mutex
	workers map[uint64]*workerConn
	hashes  ring
	tombs   []WorkerInfo // most recent lost workers, newest last
	closed  bool

	nextWorker atomic.Uint64
	nextReq    atomic.Uint64

	registeredTotal atomic.Int64
	lostTotal       atomic.Int64
	dispatched      atomic.Int64
	declined        atomic.Int64 // ExecRemote calls declined (no live worker)

	breakerOpened   atomic.Int64 // breakers tripped open
	breakerReadmit  atomic.Int64 // probation re-admissions after cooldown
	drainsAnnounced atomic.Int64 // workers that drained gracefully
}

// NewCoordinator starts listening on cfg.Addr and accepting worker
// registrations.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if cfg.TaskTimeout == 0 {
		cfg.TaskTimeout = DefaultTaskTimeout
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.BreakerTrips == 0 {
		cfg.BreakerTrips = DefaultBreakerTrips
	} else if cfg.BreakerTrips < 0 {
		cfg.BreakerTrips = 0 // disabled
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("dist: coordinator listen: %w", err)
		}
	}
	co := &Coordinator{cfg: cfg, ln: ln, workers: make(map[uint64]*workerConn)}
	co.wg.Add(1)
	go co.acceptLoop()
	return co, nil
}

// Addr returns the coordinator's bound listen address (useful with ":0").
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Close stops accepting registrations and drops every worker.
func (co *Coordinator) Close() {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.closed = true
	workers := make([]*workerConn, 0, len(co.workers))
	for _, w := range co.workers {
		workers = append(workers, w)
	}
	co.mu.Unlock()
	co.ln.Close()
	for _, w := range workers {
		co.drop(w, errors.New("coordinator shutting down"))
	}
	co.wg.Wait()
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
	}
}

// acceptLoop admits worker connections until the listener closes.
func (co *Coordinator) acceptLoop() {
	defer co.wg.Done()
	for {
		conn, err := co.ln.Accept()
		if err != nil {
			return // listener closed
		}
		co.wg.Add(1)
		go func() {
			defer co.wg.Done()
			co.handleConn(conn)
		}()
	}
}

// handleConn runs one worker connection: handshake, registration, then the
// read loop. The per-read deadline is the heartbeat timeout, so a silent or
// partitioned worker is detected without a separate liveness timer.
func (co *Coordinator) handleConn(conn net.Conn) {
	wc := newWireConn(conn, co.cfg.HeartbeatTimeout, co.cfg.WriteTimeout)
	hello, err := wc.readFrame()
	if err != nil || hello.typ != frameHello {
		co.logf("dist: rejecting connection from %s: bad hello (%v)", conn.RemoteAddr(), err)
		wc.Close()
		return
	}
	name, err := decodeHello(hello.payload)
	if err != nil {
		co.logf("dist: rejecting connection from %s: %v", conn.RemoteAddr(), err)
		wc.Close()
		return
	}
	id := co.nextWorker.Add(1)
	w := &workerConn{
		id: id, name: name, addr: conn.RemoteAddr().String(),
		wc: wc, pending: make(map[uint64]chan rpcReply),
	}
	w.lastBeat.Store(time.Now().UnixNano())
	var idb [8]byte
	binary.BigEndian.PutUint64(idb[:], id)
	if err := wc.writeFrame(frameHelloOK, hello.req, idb[:]); err != nil {
		wc.Close()
		return
	}
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		wc.Close()
		return
	}
	co.workers[id] = w
	co.hashes.add(id)
	co.mu.Unlock()
	co.registeredTotal.Add(1)
	co.logf("dist: worker %q registered from %s (id %d)", name, w.addr, id)

	for {
		f, err := wc.readFrame()
		if err != nil {
			co.drop(w, err)
			return
		}
		switch f.typ {
		case frameHeartbeat:
			w.lastBeat.Store(time.Now().UnixNano())
			// Echo the heartbeat: the ack is what refreshes the worker's
			// own read deadline.
			if err := wc.writeFrame(frameHeartbeat, f.req, nil); err != nil {
				co.drop(w, err)
				return
			}
		case frameResult, frameError:
			w.deliver(f)
		case frameDrain:
			co.beginDrain(w)
		default:
			co.drop(w, corruptf("unexpected frame type %d from worker", f.typ))
			return
		}
	}
}

// drop removes a worker: out of the ring, pending RPCs failed (their waiters
// see a closed channel and surface a worker-lost error into the engine's
// retry path), connection closed, tombstone recorded.
func (co *Coordinator) drop(w *workerConn, cause error) {
	co.mu.Lock()
	if _, ok := co.workers[w.id]; !ok {
		co.mu.Unlock()
		return // already dropped
	}
	delete(co.workers, w.id)
	co.hashes.remove(w.id)
	info := w.info(false)
	co.tombs = append(co.tombs, info)
	if len(co.tombs) > maxTombstones {
		co.tombs = co.tombs[len(co.tombs)-maxTombstones:]
	}
	co.mu.Unlock()
	co.lostTotal.Add(1)
	w.pmu.Lock()
	w.gone = true
	for req, ch := range w.pending {
		close(ch)
		delete(w.pending, req)
	}
	w.pmu.Unlock()
	w.wc.Close()
	co.logf("dist: worker %q lost: %v", w.name, cause)
}

// info snapshots one worker's stats. Callers hold the coordinator mutex
// (which guards the breaker/drain fields).
func (w *workerConn) info(live bool) WorkerInfo {
	inf := WorkerInfo{
		ID: w.id, Name: w.name, Addr: w.addr, Live: live,
		TasksDone:    w.tasksDone.Load(),
		TasksFailed:  w.tasksFailed.Load(),
		BreakerTrips: w.trips,
	}
	switch {
	case w.draining:
		inf.Breaker = "draining"
	case w.open:
		inf.Breaker = "open"
	case w.probation:
		inf.Breaker = "probation"
	default:
		inf.Breaker = "closed"
	}
	if live {
		inf.HeartbeatAgeMS = time.Since(time.Unix(0, w.lastBeat.Load())).Milliseconds()
	}
	return inf
}

// beginDrain handles a worker's drain announcement: out of the routing ring
// immediately, but the session stays up so in-flight task results still
// deliver. The worker closes the connection once its
// in-flight work is done, which lands in drop as a normal disconnect.
func (co *Coordinator) beginDrain(w *workerConn) {
	co.mu.Lock()
	first := !w.draining
	if first {
		w.draining = true
		co.hashes.remove(w.id)
	}
	co.mu.Unlock()
	if first {
		co.drainsAnnounced.Add(1)
		co.logf("dist: worker %q draining (unrouted, session open for in-flight results)", w.name)
	}
}

// noteFailure records one task failure against a worker's breaker; at
// BreakerTrips consecutive failures the breaker opens: the worker leaves the
// routing ring for BreakerCooldown, after which pick re-admits it on
// probation. Heartbeats keep flowing — a flapping worker is unrouted, not
// disconnected.
func (co *Coordinator) noteFailure(w *workerConn) {
	if co.cfg.BreakerTrips <= 0 {
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if w.draining || w.open {
		return
	}
	w.trips++
	if w.trips >= co.cfg.BreakerTrips {
		w.open = true
		w.probation = false
		w.openUntil = time.Now().Add(co.cfg.BreakerCooldown)
		co.hashes.remove(w.id)
		co.breakerOpened.Add(1)
		co.logf("dist: worker %q breaker open after %d consecutive failures (cooldown %v)",
			w.name, w.trips, co.cfg.BreakerCooldown)
	}
}

// noteSuccess closes a worker's breaker bookkeeping after a completed task:
// probation ends and the consecutive-failure count resets.
func (co *Coordinator) noteSuccess(w *workerConn) {
	if co.cfg.BreakerTrips <= 0 {
		return
	}
	co.mu.Lock()
	if w.trips != 0 || w.probation {
		w.trips = 0
		w.probation = false
	}
	co.mu.Unlock()
}

// BreakerStats returns the circuit-breaker and drain counters: breakers
// tripped open, probation re-admissions, and graceful drains announced.
func (co *Coordinator) BreakerStats() (opened, readmitted, drained int64) {
	return co.breakerOpened.Load(), co.breakerReadmit.Load(), co.drainsAnnounced.Load()
}

// Workers returns the live workers followed by the recent lost ones,
// ordered by registration.
func (co *Coordinator) Workers() []WorkerInfo {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]WorkerInfo, 0, len(co.workers)+len(co.tombs))
	for _, w := range co.workers {
		out = append(out, w.info(true))
	}
	sortWorkers(out)
	return append(out, co.tombs...)
}

// sortWorkers orders by id ascending (registration order).
func sortWorkers(ws []WorkerInfo) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].ID < ws[j-1].ID; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

// LiveWorkers returns the number of currently registered live workers.
func (co *Coordinator) LiveWorkers() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.workers)
}

// Counts returns the cumulative registered, currently live, and cumulative
// lost worker counts, plus remote dispatch counters.
func (co *Coordinator) Counts() (registered, live, lost, dispatched, declined int64) {
	co.mu.Lock()
	live = int64(len(co.workers))
	co.mu.Unlock()
	return co.registeredTotal.Load(), live, co.lostTotal.Load(),
		co.dispatched.Load(), co.declined.Load()
}

// pick routes a ring key to a live worker. It doubles as the breaker's
// probation clock: any open breaker whose cooldown has passed is re-admitted
// here, with the trip count left one short of the threshold so a single
// probation failure re-opens it while a success closes it fully.
func (co *Coordinator) pick(key uint64) *workerConn {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := time.Now()
	for _, w := range co.workers {
		if w.open && !w.draining && now.After(w.openUntil) {
			w.open = false
			w.probation = true
			w.trips = co.cfg.BreakerTrips - 1
			co.hashes.add(w.id)
			co.breakerReadmit.Add(1)
			co.logf("dist: worker %q re-admitted on probation", w.name)
		}
	}
	id, ok := co.hashes.lookup(key)
	if !ok {
		return nil
	}
	return co.workers[id]
}

// ExecRemote implements cluster.TaskExecutor: it routes one task attempt to
// a worker by consistent hashing on (stage, task, attempt) and returns the
// worker's result bytes. No live worker declines with cluster.ErrNoRemote
// (the attempt runs locally); a worker failing or dying mid-task returns a
// real error, which consumes one engine retry — the next attempt hashes to a
// different ring point and re-disperses over the survivors.
func (co *Coordinator) ExecRemote(ctx context.Context, stage cluster.StageInfo, att cluster.AttemptInfo, kind string, payload func() []byte) ([]byte, error) {
	w := co.pick(routeKey(stage.Seq, att.Task, att.Attempt))
	if w == nil {
		co.declined.Add(1)
		return nil, cluster.ErrNoRemote
	}
	req := co.nextReq.Add(1)
	ch, err := w.registerPending(req)
	if err != nil {
		// The worker died between pick and dispatch; nothing was sent, so
		// fall back to local execution instead of burning a retry.
		co.declined.Add(1)
		return nil, cluster.ErrNoRemote
	}
	body, err := encodeTask(kind, payload())
	if err != nil {
		w.unregisterPending(req)
		return nil, err
	}
	if err := w.wc.writeFrame(frameTask, req, body); err != nil {
		w.unregisterPending(req)
		co.drop(w, err)
		return nil, fmt.Errorf("dist: dispatching %s task %d to worker %q: %w", kind, att.Task, w.name, err)
	}
	co.dispatched.Add(1)
	timer := time.NewTimer(co.cfg.TaskTimeout)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		w.unregisterPending(req)
		return nil, ctx.Err()
	case <-timer.C:
		w.unregisterPending(req)
		co.noteFailure(w)
		return nil, fmt.Errorf("dist: %s task %d timed out after %v on worker %q",
			kind, att.Task, co.cfg.TaskTimeout, w.name)
	case rep, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("dist: worker %q lost while running %s task %d", w.name, kind, att.Task)
		}
		switch rep.typ {
		case frameResult:
			w.tasksDone.Add(1)
			co.noteSuccess(w)
			return rep.payload, nil
		case frameError:
			w.tasksFailed.Add(1)
			co.noteFailure(w)
			return nil, fmt.Errorf("dist: worker %q failed %s task %d: %s", w.name, kind, att.Task, rep.payload)
		default:
			return nil, corruptf("unexpected reply type %d for task request", rep.typ)
		}
	}
}
