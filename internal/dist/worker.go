package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"csb/internal/cluster"
	"csb/internal/dist/task"
)

// Worker defaults applied by RunWorker to zero-valued WorkerConfig fields.
const (
	// DefaultDialTimeout bounds one connection attempt to the coordinator.
	DefaultDialTimeout = 5 * time.Second
	// DefaultReplicaBudget bounds the worker's replica store.
	DefaultReplicaBudget = 256 << 20
)

// WorkerConfig parameterizes RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's listen address to join.
	Coordinator string
	// Name identifies the worker in /workers and log lines (defaults to
	// "worker").
	Name string
	// HeartbeatInterval is how often to heartbeat (0 means
	// DefaultHeartbeatInterval). The read deadline is derived from it, so
	// missing coordinator acks also tears the session down.
	HeartbeatInterval time.Duration
	// DialTimeout bounds one connection attempt (0 means DefaultDialTimeout).
	DialTimeout time.Duration
	// ReplicaBudget bounds the bytes of replicated artifacts kept (0 means
	// DefaultReplicaBudget); the oldest replicas evict first.
	ReplicaBudget int64
	// WrapConn, when non-nil, wraps the dialed coordinator connection —
	// the seam tests and the -chaos-net flag use to interpose a
	// chaosnet fault proxy under the CSBD1 wire layer.
	WrapConn func(net.Conn) net.Conn
	// Logf, when non-nil, receives session lifecycle messages.
	Logf func(format string, args ...any)
}

// Worker is the csbd worker runtime: it joins a coordinator, executes
// dispatched task kinds (everything registered in internal/dist/task), and
// stores replicated artifacts. Run drives the connect/serve/reconnect loop
// until the context ends.
type Worker struct {
	cfg WorkerConfig

	// Replica store: id -> bytes, with insertion order for byte-budget
	// eviction (oldest first).
	rmu    sync.Mutex
	reps   map[string][]byte
	order  []string
	rbytes int64

	// Graceful drain: Drain announces intent to the coordinator, finishes
	// in-flight tasks, then Run returns.
	drainOnce sync.Once
	drainCh   chan struct{}
	draining  atomic.Bool
	inflight  atomic.Int64

	// after is time.After; a test substitutes a recording clock.
	after func(time.Duration) <-chan time.Time
}

// NewWorker validates cfg and returns a Worker ready to Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("dist: worker needs a coordinator address")
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.ReplicaBudget == 0 {
		cfg.ReplicaBudget = DefaultReplicaBudget
	}
	return &Worker{cfg: cfg, reps: make(map[string][]byte), drainCh: make(chan struct{}), after: time.After}, nil
}

// Drain flips the worker into graceful shutdown: it tells the coordinator to
// stop routing new tasks here (frameDrain), lets in-flight tasks finish and
// deliver their results, then closes the session and makes Run return nil.
// This is the SIGTERM path of csbd -role worker; safe to call more than once
// and from any goroutine.
func (w *Worker) Drain() {
	w.drainOnce.Do(func() {
		w.draining.Store(true)
		close(w.drainCh)
	})
}

// Draining reports whether Drain has been called.
func (w *Worker) Draining() bool { return w.draining.Load() }

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run joins the coordinator and serves tasks until ctx ends, reconnecting
// after connection loss on cluster.ReconnectBackoff: the wait doubles per
// consecutive failed session and starts over once a session has completed
// its handshake. It returns nil once ctx is done.
func (w *Worker) Run(ctx context.Context) error {
	failures := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		joined, err := w.session(ctx)
		if ctx.Err() != nil || w.draining.Load() {
			return nil
		}
		if joined {
			failures = 0
		}
		failures++
		delay := cluster.ReconnectBackoff.Delay(w.cfg.Name, failures)
		w.logf("dist: worker %q session ended: %v (reconnecting in %v)", w.cfg.Name, err, delay)
		select {
		case <-ctx.Done():
			return nil
		case <-w.after(delay):
		}
	}
}

// session runs one connection lifetime: dial, handshake, serve frames.
// joined reports whether the handshake completed.
func (w *Worker) session(ctx context.Context) (joined bool, _ error) {
	d := net.Dialer{Timeout: w.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", w.cfg.Coordinator)
	if err != nil {
		return false, err
	}
	if w.cfg.WrapConn != nil {
		conn = w.cfg.WrapConn(conn)
	}
	// The read deadline is 3 heartbeat intervals plus the coordinator's own
	// grace: heartbeat acks flow back every interval, so a healthy session
	// always has traffic well inside it.
	wc := newWireConn(conn, 3*w.cfg.HeartbeatInterval+time.Second, DefaultWriteTimeout)
	defer wc.Close()
	hello, err := encodeHello(w.cfg.Name)
	if err != nil {
		return false, err
	}
	if err := wc.writeFrame(frameHello, 0, hello); err != nil {
		return false, err
	}
	ok, err := wc.readFrame()
	if err != nil {
		return false, err
	}
	if ok.typ != frameHelloOK || len(ok.payload) != 8 {
		return false, corruptf("bad hello reply (type %d, %d bytes)", ok.typ, len(ok.payload))
	}
	id := binary.BigEndian.Uint64(ok.payload)
	w.logf("dist: worker %q joined %s as id %d", w.cfg.Name, w.cfg.Coordinator, id)

	// Heartbeat sender; its failure also tears the session down via the
	// read deadline (no ack traffic).
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		tick := time.NewTicker(w.cfg.HeartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				if err := wc.writeFrame(frameHeartbeat, 0, nil); err != nil {
					return
				}
			}
		}
	}()
	// Close the connection when ctx ends so the blocking read returns.
	go func() {
		<-hbCtx.Done()
		wc.Close()
	}()
	// Graceful drain: announce it to the coordinator (which unroutes this
	// worker but keeps the session for in-flight results), wait out the
	// in-flight tasks, then close so the read loop below returns. A task
	// that races the drain frame still runs to completion — the inflight
	// counter covers it.
	go func() {
		select {
		case <-hbCtx.Done():
			return
		case <-w.drainCh:
		}
		w.logf("dist: worker %q draining", w.cfg.Name)
		wc.writeFrame(frameDrain, 0, nil)
		for w.inflight.Load() > 0 {
			select {
			case <-hbCtx.Done():
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		wc.Close()
	}()

	var tasks sync.WaitGroup
	defer tasks.Wait()
	for {
		f, err := wc.readFrame()
		if err != nil {
			return true, err
		}
		switch f.typ {
		case frameHeartbeat: // ack; the read deadline was just refreshed
		case frameTask:
			tasks.Add(1)
			w.inflight.Add(1)
			go func(f frame) {
				defer tasks.Done()
				defer w.inflight.Add(-1)
				w.runTask(wc, f)
			}(f)
		case frameReplicate:
			w.storeReplica(wc, f)
		case frameReplicaGet:
			w.serveReplica(wc, f)
		default:
			return true, corruptf("unexpected frame type %d from coordinator", f.typ)
		}
	}
}

// runTask executes one dispatched task and replies with its result bytes.
func (w *Worker) runTask(wc *wireConn, f frame) {
	kind, payload, err := decodeTask(f.payload)
	var result []byte
	if err == nil {
		result, err = task.Run(kind, payload)
	}
	if err != nil {
		wc.writeFrame(frameError, f.req, []byte(err.Error()))
		return
	}
	if err := wc.writeFrame(frameResult, f.req, result); err != nil {
		// Connection is going down; the read loop will notice and
		// reconnect. The coordinator re-dispatches through the retry path.
		w.logf("dist: worker %q failed to send %s result: %v", w.cfg.Name, kind, err)
	}
}

// storeReplica installs one replicated artifact under the byte budget.
func (w *Worker) storeReplica(wc *wireConn, f frame) {
	id, data, err := decodeReplica(f.payload)
	if err != nil {
		wc.writeFrame(frameError, f.req, []byte(err.Error()))
		return
	}
	if int64(len(data)) > w.cfg.ReplicaBudget {
		wc.writeFrame(frameError, f.req, []byte("replica exceeds worker budget"))
		return
	}
	w.rmu.Lock()
	if old, ok := w.reps[id]; ok {
		w.rbytes -= int64(len(old))
	} else {
		w.order = append(w.order, id)
	}
	w.reps[id] = data
	w.rbytes += int64(len(data))
	for w.rbytes > w.cfg.ReplicaBudget && len(w.order) > 0 {
		oldest := w.order[0]
		w.order = w.order[1:]
		if oldest == id {
			// Never evict the replica just stored; re-queue it as newest.
			w.order = append(w.order, oldest)
			continue
		}
		w.rbytes -= int64(len(w.reps[oldest]))
		delete(w.reps, oldest)
	}
	w.rmu.Unlock()
	wc.writeFrame(frameReplicateOK, f.req, nil)
}

// serveReplica answers a replica read.
func (w *Worker) serveReplica(wc *wireConn, f frame) {
	id, _, err := decodeReplica(f.payload)
	if err != nil {
		wc.writeFrame(frameError, f.req, []byte(err.Error()))
		return
	}
	w.rmu.Lock()
	data, ok := w.reps[id]
	w.rmu.Unlock()
	if !ok {
		wc.writeFrame(frameError, f.req, []byte("replica not held: "+id))
		return
	}
	wc.writeFrame(frameReplicaData, f.req, data)
}
