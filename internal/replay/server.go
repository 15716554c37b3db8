package replay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"csb/internal/netflow"
)

// Server replays one dataset to any number of concurrent TCP subscribers.
// One run has one clock: the pacing engine emits each flow once, in spans —
// runs of flows that are due at the same instant — and every span fans out to
// all connected subscribers through bounded per-subscriber queues. The lag
// policy decides what a full queue means — block the clock, drop the span for
// that subscriber, or disconnect it — so under drop/disconnect one slow client
// can never stall the run or its peers.
//
// The server holds the dataset only as its wire records (the CSBF1 flow
// section): frames are slices of that slab and the pacer reads each start
// time out of the record bytes, so a session costs no per-flow memory beyond
// the slab — none at all when the slab is a cached artifact's own bytes.
//
// Lifecycle: NewServer → Serve (accept loop, usually in a goroutine) and/or
// Attach → Start → Wait → Close. Subscribers connecting mid-run join the
// stream at the current position (their first frame's sequence number says
// where); subscribers connecting after the run get an immediate clean end
// frame.
type Server struct {
	slab  []byte // wire records, immutable; flow i is slab[i*FlowRecordLen:...]
	flows int    // len(slab) / FlowRecordLen
	opts  Options
	clk   clock
	hdr   [HeaderLen]byte

	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	bcast   []*subscriber // emitter-owned snapshot scratch, reused every span
	changed chan struct{} // closed and replaced at every attach, detach and Close
	started bool
	runOver bool // emitter finished; set under mu before queues close
	closed  bool
	ln      net.Listener

	stop    chan struct{} // closed by Close: aborts pacing and accept loop
	runDone chan struct{} // closed when the emitter finishes

	emitted      atomic.Int64
	dropped      atomic.Int64
	disconnected atomic.Int64
	subsTotal    atomic.Int64

	startWall atomic.Int64 // unix nanos; 0 until Start
	endWall   atomic.Int64 // unix nanos; 0 until the run finishes
}

// span is one queue element: flows first..first+n-1, released by the clock at
// one instant (1 <= n <= Options.BatchLen).
type span struct{ first, n int }

// subscriber is one connected stream. The emitter enqueues spans on ch; the
// writer goroutine frames and sends them. gone is closed when the writer
// exits (connection error or eviction) so a block-policy emitter never
// deadlocks on a dead peer.
type subscriber struct {
	conn      net.Conn
	ch        chan span
	gone      chan struct{}
	closeOnce sync.Once
	delivered uint64
	evicted   atomic.Bool
}

// NewServer encodes flows into wire records and serves those; see
// NewServerFromRecords for the checks.
func NewServer(flows []netflow.Flow, opts Options) (*Server, error) {
	return NewServerFromRecords(EncodeFlows(flows), opts)
}

// NewServerFromRecords serves a slab of concatenated wire records — a CSBF1
// flow section (FlowSection) or EncodeFlows output. It validates opts and
// checks that the slab is whole records sorted by StartMicros (the pacing
// contract). The slab is aliased, not copied: the caller must not modify it
// while the server lives.
func NewServerFromRecords(slab []byte, opts Options) (*Server, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if len(slab)%FlowRecordLen != 0 {
		return nil, fmt.Errorf("replay: slab length %d is not a multiple of the %d-byte record: %w", len(slab), FlowRecordLen, ErrCorruptStream)
	}
	s := &Server{
		slab:    slab,
		flows:   len(slab) / FlowRecordLen,
		opts:    opts,
		clk:     realClock(),
		subs:    make(map[*subscriber]struct{}),
		changed: make(chan struct{}),
		stop:    make(chan struct{}),
		runDone: make(chan struct{}),
	}
	prev := int64(math.MinInt64)
	for i := 0; i < s.flows; i++ {
		start := s.startMicros(i)
		if start < prev {
			return nil, fmt.Errorf("replay: flows not sorted by StartMicros (index %d): %w", i, ErrCorruptStream)
		}
		prev = start
	}
	s.hdr = EncodeHeader(Header{ArtifactSHA: opts.ArtifactSHA, Flows: uint64(s.flows)})
	return s, nil
}

// startMicros reads flow i's start time out of its wire record.
func (s *Server) startMicros(i int) int64 {
	return int64(binary.BigEndian.Uint64(s.slab[i*FlowRecordLen+16:]))
}

// Serve accepts subscribers on ln until ln is closed or the server is
// closed. It is safe to run concurrently with Start.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("replay: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return nil
			default:
				return err
			}
		}
		s.Attach(conn)
	}
}

// Attach registers an already-established connection as a subscriber. The
// stream header goes out immediately; frames follow once the run reaches
// this subscriber.
func (s *Server) Attach(conn net.Conn) {
	sub := &subscriber{
		conn: conn,
		ch:   make(chan span, s.opts.QueueLen),
		gone: make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.subs[sub] = struct{}{}
	s.notifyLocked()
	runOver := s.runOver
	s.mu.Unlock()
	s.subsTotal.Add(1)
	if runOver {
		// Run already finished: the emitter's shutdown pass will never see
		// this queue, so end the stream cleanly now. runOver is checked
		// under the same lock the shutdown pass snapshots under, so exactly
		// one side closes the channel.
		close(sub.ch)
	}
	go s.writeLoop(sub)
}

// Subscribers returns the number of currently connected subscribers.
func (s *Server) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// notifyLocked wakes AwaitSubscribers and Drain; the caller holds s.mu and
// has just changed s.subs or s.closed.
func (s *Server) notifyLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// subsState returns the subscriber count, whether the server is closed, and
// a channel that is closed the next time either changes.
func (s *Server) subsState() (have int, closed bool, changed <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs), s.closed, s.changed
}

// expiry is the timeout channel of AwaitSubscribers and Drain (0 never fires).
func expiry(timeout time.Duration) <-chan time.Time {
	if timeout <= 0 {
		return nil
	}
	return time.After(timeout)
}

// AwaitSubscribers blocks until at least n subscribers are connected or the
// timeout elapses (0 waits forever). It wakes on the attach itself, so a run
// started right after it begins with no polling delay.
func (s *Server) AwaitSubscribers(n int, timeout time.Duration) error {
	expired := expiry(timeout)
	for {
		have, closed, changed := s.subsState()
		if have >= n {
			return nil
		}
		if closed {
			return errors.New("replay: server closed")
		}
		select {
		case <-changed:
		case <-expired:
			return fmt.Errorf("replay: %d subscriber(s) after %v, want %d", have, timeout, n)
		}
	}
}

// Drain waits until every subscriber's writer has finished — queues emptied,
// end frames flushed, connections half-closed — or the timeout elapses
// (0 waits forever). Call after Wait when shutting down gracefully: Close
// alone tears connections down immediately, truncating streams that are
// still catching up.
func (s *Server) Drain(timeout time.Duration) error {
	expired := expiry(timeout)
	for {
		have, _, changed := s.subsState()
		if have == 0 {
			return nil
		}
		select {
		case <-changed:
		case <-expired:
			return fmt.Errorf("replay: %d subscriber(s) still draining after %v", have, timeout)
		}
	}
}

// Start launches the replay run. It errors if called twice or after Close.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("replay: server closed")
	}
	if s.started {
		return errors.New("replay: run already started")
	}
	s.started = true
	s.startWall.Store(time.Now().UnixNano())
	go s.run()
	return nil
}

// Wait blocks until the run has emitted every flow (or the server closed).
func (s *Server) Wait() {
	<-s.runDone
}

// Done reports whether the run has finished.
func (s *Server) Done() bool {
	select {
	case <-s.runDone:
		return true
	default:
		return false
	}
}

// run is the emitter: one pass over the dataset on the pacing schedule,
// fanning each span of due flows out under the lag policy.
func (s *Server) run() {
	defer func() {
		s.endWall.Store(time.Now().UnixNano())
		// Close every queue so the writers emit end frames and finish.
		// runOver flips under the same lock as the snapshot, so a
		// concurrent Attach either lands in the snapshot or closes its own
		// queue — never both.
		s.mu.Lock()
		s.runOver = true
		subs := make([]*subscriber, 0, len(s.subs))
		for sub := range s.subs {
			subs = append(subs, sub)
		}
		s.mu.Unlock()
		for _, sub := range subs {
			close(sub.ch)
		}
		close(s.runDone)
	}()
	if s.flows == 0 {
		return
	}
	p := newPacer(s.clk, s.opts)
	p.start(s.startMicros(0))
	for i := 0; i < s.flows; {
		select {
		case <-s.stop:
			return
		default:
		}
		sp := s.nextSpan(p, i)
		s.broadcast(sp)
		s.emitted.Add(int64(sp.n))
		i += sp.n
	}
}

// nextSpan sleeps until flow i is due, then extends the span over the
// following flows that are due at that same instant: their time-warp due time
// is not after one reading of the clock and the token bucket still holds a
// whole token for each. These are exactly the flows the per-flow schedule
// would release next without sleeping, so a span never delays a flow, and a
// paced, caught-up run gets spans of one.
func (s *Server) nextSpan(p *pacer, i int) span {
	p.wait(s.startMicros(i))
	n, limit := 1, min(s.opts.BatchLen, s.flows-i)
	if limit > 1 {
		now := s.clk.now()
		for n < limit && p.due(s.startMicros(i+n), now) {
			n++
		}
	}
	return span{first: i, n: n}
}

// broadcast offers one span to every live subscriber under the policy: one
// subscriber snapshot and one queue element per subscriber, whatever the
// span's length. The snapshot scratch is owned by the emitter goroutine
// (broadcast's only caller) and reused, so the fan-out allocates nothing.
func (s *Server) broadcast(sp span) {
	s.mu.Lock()
	subs := s.bcast[:0]
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.bcast = subs
	s.mu.Unlock()
	for _, sub := range subs {
		switch s.opts.Policy {
		case PolicyDrop:
			select {
			case sub.ch <- sp:
			default:
				s.dropped.Add(int64(sp.n))
			}
		case PolicyDisconnect:
			select {
			case sub.ch <- sp:
			default:
				s.evict(sub)
				s.disconnected.Add(1)
			}
		default: // PolicyBlock
			select {
			case sub.ch <- sp:
			case <-sub.gone:
			case <-s.stop:
				return
			}
		}
	}
}

// evict removes a lagging subscriber: closing the connection unblocks any
// in-flight write and makes its writer exit.
func (s *Server) evict(sub *subscriber) {
	sub.evicted.Store(true)
	s.removeSub(sub)
	sub.closeOnce.Do(func() { sub.conn.Close() })
}

// removeSub unregisters a subscriber (idempotent).
func (s *Server) removeSub(sub *subscriber) {
	s.mu.Lock()
	if _, ok := s.subs[sub]; ok {
		delete(s.subs, sub)
		s.notifyLocked()
	}
	s.mu.Unlock()
}

// writeLoop frames and sends one subscriber's stream. Whatever contiguous
// spans are already queued when the writer comes around go out as one batch
// frame of up to Options.BatchLen flows — a single slab slice, framed and
// checksummed once — so a catching-up stream amortizes framing while a
// caught-up stream still gets every span in its own frame the moment it is
// emitted. Batching never waits: only spans sitting in the queue right now
// extend the frame, and a span is never split across frames. The send buffer
// is flushed whenever the queue drains, so a caught-up live stream sees every
// flow promptly.
func (s *Server) writeLoop(sub *subscriber) {
	defer close(sub.gone)
	defer s.removeSub(sub)
	defer sub.closeOnce.Do(func() { sub.conn.Close() })
	if _, err := sub.conn.Write(s.hdr[:]); err != nil {
		return
	}
	fw := newFrameWriter(sub.conn)
	var (
		pending     span // opens the next frame, when havePending
		havePending bool // a span that could not join the frame was pulled off the queue
		closed      bool // the queue closed mid-collect
	)
	for !closed {
		var fr span // the frame being collected
		if havePending {
			fr, havePending = pending, false
		} else {
			var ok bool
			if fr, ok = <-sub.ch; !ok {
				break
			}
		}
	collect:
		for fr.n < s.opts.BatchLen {
			select {
			case next, ok := <-sub.ch:
				if !ok {
					closed = true
					break collect
				}
				if next.first != fr.first+fr.n || fr.n+next.n > s.opts.BatchLen {
					// A drop-policy gap must land between frames so the
					// receiver sees it as a sequence jump; a span that would
					// overflow the frame simply opens the next one.
					pending, havePending = next, true
					break collect
				}
				fr.n += next.n
			default:
				break collect
			}
		}
		payload := s.slab[fr.first*FlowRecordLen : (fr.first+fr.n)*FlowRecordLen]
		if err := fw.writeFrame(uint64(fr.first), payload); err != nil {
			return
		}
		sub.delivered += uint64(fr.n)
		if !havePending && len(sub.ch) == 0 {
			if err := fw.w.Flush(); err != nil {
				return
			}
		}
	}
	if sub.evicted.Load() {
		return
	}
	if err := fw.writeEnd(sub.delivered); err != nil {
		return
	}
	// Half-close when possible so the peer reads a clean EOF after the end
	// frame; the deferred Close tears the rest down.
	if cw, ok := sub.conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
}

// Close aborts the run (if any), stops the accept loop and disconnects all
// subscribers. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.notifyLocked()
	ln := s.ln
	started := s.started
	subs := make([]*subscriber, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	close(s.stop)
	if ln != nil {
		ln.Close()
	}
	if started {
		<-s.runDone
	} else {
		// The run will never start (Start errors once closed): release any
		// Wait callers and close the queues so the writers exit.
		s.mu.Lock()
		s.runOver = true
		s.mu.Unlock()
		for _, sub := range subs {
			close(sub.ch)
		}
		close(s.runDone)
	}
	for _, sub := range subs {
		sub.closeOnce.Do(func() { sub.conn.Close() })
	}
}

// Stats is a point-in-time snapshot of one replay run.
type Stats struct {
	// Flows is the dataset size.
	Flows int
	// Emitted counts flows the clock has released so far.
	Emitted int64
	// Subscribers is the current subscriber count; SubscribersTotal counts
	// every subscriber that ever connected.
	Subscribers      int
	SubscribersTotal int64
	// Dropped counts flows skipped under PolicyDrop, summed over
	// subscribers; Disconnected counts PolicyDisconnect evictions.
	Dropped      int64
	Disconnected int64
	// Done reports whether the run has finished; Elapsed is the run's wall
	// time so far (or final); FlowsPerSec is Emitted/Elapsed.
	Done        bool
	Elapsed     time.Duration
	FlowsPerSec float64
}

// Stats snapshots the run counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Flows:            s.flows,
		Emitted:          s.emitted.Load(),
		Subscribers:      s.Subscribers(),
		SubscribersTotal: s.subsTotal.Load(),
		Dropped:          s.dropped.Load(),
		Disconnected:     s.disconnected.Load(),
		Done:             s.Done(),
	}
	if start := s.startWall.Load(); start != 0 {
		end := s.endWall.Load()
		if end == 0 {
			end = time.Now().UnixNano()
		}
		st.Elapsed = time.Duration(end - start)
		if st.Elapsed > 0 {
			st.FlowsPerSec = float64(st.Emitted) / st.Elapsed.Seconds()
		}
	}
	return st
}
