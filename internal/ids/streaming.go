package ids

import (
	"fmt"
	"sort"

	"csb/internal/netflow"
)

// StreamDetector is the on-line form of the anomaly detector — the paper's
// stated future work ("on-line intrusion detection with streaming data").
// Flows arrive in start-time order; each is folded on arrival into the
// traffic patterns of its tumbling window (no flow is kept), and when a window
// closes its patterns run through the same Figure 4 decision flow, out of the
// same aggregator, as the off-line detector. Consecutive
// duplicate alerts (same attack class and detection IP in back-to-back
// windows) are suppressed so a long-running attack raises one alert when it
// starts and a fresh one only if it pauses and resumes.
type StreamDetector struct {
	det    *Detector
	window int64 // window length, microseconds
	sink   func(Alert)

	start   int64 // current window start (0 before the first flow)
	started bool
	open    int     // flows folded into the current window's patterns
	alerts  []Alert // closeWindow's scratch

	// Reorder handling: flows are buffered in pending (sorted by start
	// time) until the high-water mark has moved horizon past them, then
	// released into the window logic in order. With horizon 0 every flow
	// is released immediately, and a flow older than the current window is
	// rejected with a LateFlowError instead of being silently folded into
	// the wrong window.
	horizon int64
	pending []netflow.Flow
	maxSeen int64
	late    int64

	// lastFired maps (IP, type, byDst) to the window index of the most
	// recent alert, for consecutive-window suppression. Only the last closed
	// window's entries are kept.
	lastFired map[streamKey]int64
	windowIdx int64
}

// LateFlowError reports a flow that arrived too far out of order to place in
// any open window: its start time precedes the reorder horizon (or, with no
// horizon, the current window). The flow is counted (LateFlows) and skipped;
// the detector's window accounting is unaffected.
type LateFlowError struct {
	// StartMicros is the rejected flow's start time; Limit is the oldest
	// start time still placeable when it arrived.
	StartMicros int64
	Limit       int64
}

// Error describes the rejection.
func (e *LateFlowError) Error() string {
	return fmt.Sprintf("ids: flow at %dµs arrived %dµs past the reorder horizon",
		e.StartMicros, e.Limit-e.StartMicros)
}

type streamKey struct {
	ip    uint32
	typ   AttackType
	byDst bool
}

// DefaultStreamWindowMicros is one minute, a common flow-monitoring cadence.
const DefaultStreamWindowMicros = 60 * 1e6

// NewStreamDetector builds a streaming detector with the given thresholds
// and tumbling window length in microseconds (0 selects the default).
// Alerts are delivered synchronously to sink as windows close.
func NewStreamDetector(t Thresholds, windowMicros int64, sink func(Alert)) *StreamDetector {
	if windowMicros <= 0 {
		windowMicros = DefaultStreamWindowMicros
	}
	return &StreamDetector{
		det:       NewDetector(t),
		window:    windowMicros,
		sink:      sink,
		lastFired: make(map[streamKey]int64),
	}
}

// SetReorderHorizon makes Add tolerate out-of-order arrival within the given
// span: flows are held back (sorted) until the newest start time seen has
// moved horizonMicros past them, then released in order. Live transports
// reorder — a replay subscriber's frames are in order, but merged feeds or
// multi-exporter capture are not — and the window logic needs non-decreasing
// start times. Call before the first Add; 0 (the default) disables
// buffering.
func (s *StreamDetector) SetReorderHorizon(horizonMicros int64) {
	if horizonMicros < 0 {
		horizonMicros = 0
	}
	s.horizon = horizonMicros
}

// Add feeds one flow. With no reorder horizon, flows must arrive in
// non-decreasing StartMicros order (the order a flow exporter emits them); a
// flow older than the current window is rejected with a *LateFlowError —
// previously it was silently folded into the wrong window, corrupting that
// window's pattern accounting. With a horizon, arrival order may be off by
// up to the horizon; only flows older than that are rejected.
func (s *StreamDetector) Add(f netflow.Flow) error {
	if f.StartMicros > s.maxSeen {
		s.maxSeen = f.StartMicros
	}
	if s.horizon <= 0 {
		return s.ingest(&f)
	}
	// Insert in start-time order; arrivals are mostly in order, so the
	// binary search almost always appends. Flows that fall behind even the
	// horizon surface as a LateFlowError out of ingest when released.
	i := sort.Search(len(s.pending), func(i int) bool {
		return s.pending[i].StartMicros > f.StartMicros
	})
	s.pending = append(s.pending, netflow.Flow{})
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = f
	return s.release(s.maxSeen - s.horizon)
}

// release feeds every pending flow at or before the watermark into the
// window logic, in order.
func (s *StreamDetector) release(watermark int64) error {
	n := 0
	var err error
	for n < len(s.pending) && s.pending[n].StartMicros <= watermark {
		if e := s.ingest(&s.pending[n]); e != nil && err == nil {
			err = e
		}
		n++
	}
	if n > 0 {
		s.pending = s.pending[:copy(s.pending, s.pending[n:])]
	}
	return err
}

// ingest is the windowing core: close windows the flow has moved past, then
// fold it into the (now) current window's patterns.
func (s *StreamDetector) ingest(f *netflow.Flow) error {
	if !s.started {
		s.start = f.StartMicros
		s.started = true
	}
	if f.StartMicros < s.start {
		s.late++
		return &LateFlowError{StartMicros: f.StartMicros, Limit: s.start}
	}
	if f.StartMicros >= s.start+s.window {
		s.closeWindow()
		// The windows between the one just closed and the flow's are all
		// empty: jump straight to the flow's window instead of stepping
		// through them — a sparse trace (a multi-day quiet period at a
		// one-minute cadence) would otherwise spin through millions.
		k := (f.StartMicros - s.start) / s.window
		s.start += k * s.window
		s.windowIdx += k
	}
	s.det.agg.add(f)
	s.open++
	return nil
}

// LateFlows returns how many flows were rejected as older than the reorder
// horizon (or, with no horizon, the current window) since construction.
func (s *StreamDetector) LateFlows() int64 { return s.late }

// Flush drains the reorder buffer and closes the current window, emitting
// any pending alerts. Call once at end of stream.
func (s *StreamDetector) Flush() {
	for i := range s.pending {
		s.ingest(&s.pending[i]) // in order; nothing can be late here
	}
	s.pending = s.pending[:0]
	s.closeWindow()
	s.windowIdx++
}

// closeWindow classifies the open window's patterns, emits the
// non-suppressed alerts and leaves the aggregator empty for the next window.
func (s *StreamDetector) closeWindow() {
	if s.open == 0 {
		return
	}
	agg := &s.det.agg
	s.alerts = s.det.classify(s.alerts[:0], agg.dst.pats, agg.src.pats)
	agg.reset()
	s.open = 0
	for k, last := range s.lastFired {
		if last < s.windowIdx-1 {
			delete(s.lastFired, k) // too old to suppress anything again
		}
	}
	for _, a := range s.alerts {
		k := streamKey{ip: a.IP, typ: a.Type, byDst: a.ByDst}
		if last, ok := s.lastFired[k]; ok && last == s.windowIdx-1 {
			// Continuation of an already-reported attack: refresh the
			// suppression horizon without re-alerting.
			s.lastFired[k] = s.windowIdx
			continue
		}
		s.lastFired[k] = s.windowIdx
		s.sink(a)
	}
}
