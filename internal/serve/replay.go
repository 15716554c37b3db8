package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"csb/internal/graph"
	"csb/internal/netflow"
	"csb/internal/replay"
)

// DefaultReplaySessions is the cap on concurrently-running replay sessions
// when Config.ReplaySessions is zero. Each session owns a TCP listener and an
// emitter goroutine, so the cap is admission control, same as the job queue.
const DefaultReplaySessions = 8

// defaultReplayAwait bounds how long a session with wait_subscribers waits
// before starting anyway, when the request does not say.
const defaultReplayAwait = 60 * time.Second

// ReplayRequest is the body of POST /replay: replay a cached artifact as a
// live CSBS1 stream. Only flow-shaped artifacts replay — csv directly, csbg
// via the graph's flow projection; tsv and ndjson have no flow decoder.
type ReplayRequest struct {
	// ArtifactID is the content address of the dataset to replay.
	ArtifactID string `json:"artifact_id"`
	// Speed is the time-warp factor (0 = as fast as possible; see
	// replay.Options.Speed).
	Speed float64 `json:"speed,omitempty"`
	// Rate caps emission in flows/sec (0 = unlimited). Graph-projected flows
	// carry no timeline, so Rate is their only pacing knob.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the token-bucket depth for Rate (0 = default).
	Burst int `json:"burst,omitempty"`
	// Policy is the lag policy: block, drop or disconnect (default block).
	Policy string `json:"policy,omitempty"`
	// Queue bounds each subscriber's send queue in spans of up to one frame's
	// flows (0 = default; see replay.Options.QueueLen).
	Queue int `json:"queue,omitempty"`
	// WaitSubscribers delays the clock until this many subscribers have
	// connected (0 starts immediately), so a fan-out benchmark's subscribers
	// all see flow 0.
	WaitSubscribers int `json:"wait_subscribers,omitempty"`
	// WaitMS bounds the subscriber wait in milliseconds (0 = 60s); on
	// timeout the run starts with whoever is connected.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// ReplayStatus is the wire representation of a replay session (the POST
// /replay response and GET /replay/{id}).
type ReplayStatus struct {
	ID         string `json:"id"`
	ArtifactID string `json:"artifact_id"`
	// Addr is the TCP address subscribers dial for the CSBS1 stream.
	Addr   string  `json:"addr"`
	Flows  int     `json:"flows"`
	Speed  float64 `json:"speed"`
	Rate   float64 `json:"rate,omitempty"`
	Policy string  `json:"policy"`

	Emitted          int64   `json:"emitted"`
	Subscribers      int     `json:"subscribers"`
	SubscribersTotal int64   `json:"subscribers_total"`
	Dropped          int64   `json:"dropped"`
	Disconnected     int64   `json:"disconnected"`
	Done             bool    `json:"done"`
	FlowsPerSec      float64 `json:"flows_per_sec,omitempty"`
	CreatedAt        string  `json:"created_at"`
}

// replaySession is the server-side record of one live replay.
type replaySession struct {
	id       string
	artifact string
	srv      *replay.Server
	addr     string
	speed    float64
	rate     float64
	policy   replay.LagPolicy
	created  time.Time
}

func (rs *replaySession) status() ReplayStatus {
	st := rs.srv.Stats()
	return ReplayStatus{
		ID:         rs.id,
		ArtifactID: rs.artifact,
		Addr:       rs.addr,
		Flows:      st.Flows,
		Speed:      rs.speed,
		Rate:       rs.rate,
		Policy:     rs.policy.String(),

		Emitted:          st.Emitted,
		Subscribers:      st.Subscribers,
		SubscribersTotal: st.SubscribersTotal,
		Dropped:          st.Dropped,
		Disconnected:     st.Disconnected,
		Done:             st.Done,
		FlowsPerSec:      st.FlowsPerSec,
		CreatedAt:        rs.created.UTC().Format(time.RFC3339Nano),
	}
}

// replayTotals accumulates the counters of deleted sessions so /metrics
// totals survive DELETE /replay/{id}. Guarded by Server.rmu.
type replayTotals struct {
	subscribers  int64
	emitted      int64
	dropped      int64
	disconnected int64
}

// StartReplay opens a replay session over the cached artifact on an ephemeral
// loopback port. Errors carry the HTTP status via submitErr, same as Submit.
func (s *Server) StartReplay(req ReplayRequest) (ReplayStatus, error) {
	if req.ArtifactID == "" {
		return ReplayStatus{}, &submitErr{code: http.StatusBadRequest, msg: "artifact_id is required"}
	}
	policy, err := replay.ParseLagPolicy(req.Policy)
	if err != nil {
		return ReplayStatus{}, &submitErr{code: http.StatusBadRequest, msg: err.Error()}
	}
	data, ok := s.cache.Get(req.ArtifactID)
	if !ok {
		return ReplayStatus{}, &submitErr{code: http.StatusNotFound, msg: "artifact evicted or unknown; resubmit the job"}
	}
	rsrv, err := NewReplayServer(data, s.artifactFormat(req.ArtifactID), replay.Options{
		Speed: req.Speed, Rate: req.Rate, Burst: req.Burst,
		Policy: policy, QueueLen: req.Queue, ArtifactSHA: ArtifactSHA(req.ArtifactID),
	})
	if err != nil {
		return ReplayStatus{}, &submitErr{code: http.StatusBadRequest, msg: err.Error()}
	}

	s.rmu.Lock()
	if s.replaysClosed {
		s.rmu.Unlock()
		rsrv.Close()
		return ReplayStatus{}, &submitErr{code: http.StatusServiceUnavailable, msg: "server is shutting down"}
	}
	active := 0
	for _, rs := range s.replays {
		if !rs.srv.Done() {
			active++
		}
	}
	cap := s.cfg.ReplaySessions
	if cap <= 0 {
		cap = DefaultReplaySessions
	}
	if active >= cap {
		s.rmu.Unlock()
		rsrv.Close()
		return ReplayStatus{}, &submitErr{code: http.StatusTooManyRequests,
			msg: fmt.Sprintf("replay session cap %d reached", cap)}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.rmu.Unlock()
		rsrv.Close()
		return ReplayStatus{}, &submitErr{code: http.StatusInternalServerError, msg: err.Error()}
	}
	rs := &replaySession{
		id:       "r" + strconv.FormatInt(s.rseq.Add(1), 10),
		artifact: req.ArtifactID,
		srv:      rsrv,
		addr:     ln.Addr().String(),
		speed:    req.Speed,
		rate:     req.Rate,
		policy:   policy,
		created:  time.Now(),
	}
	s.replays[rs.id] = rs
	s.rmu.Unlock()

	go rsrv.Serve(ln)
	if n := req.WaitSubscribers; n > 0 {
		wait := defaultReplayAwait
		if req.WaitMS > 0 {
			wait = time.Duration(req.WaitMS) * time.Millisecond
		}
		go func() {
			// On timeout, start with whoever showed up — a benchmark that
			// under-dialed still runs, just without the synchronized flow 0.
			rsrv.AwaitSubscribers(n, wait)
			rsrv.Start()
		}()
	} else if err := rsrv.Start(); err != nil {
		s.dropReplay(rs.id)
		return ReplayStatus{}, &submitErr{code: http.StatusInternalServerError, msg: err.Error()}
	}
	return rs.status(), nil
}

// ReplayStatusByID returns a session's status.
func (s *Server) ReplayStatusByID(id string) (ReplayStatus, bool) {
	s.rmu.Lock()
	rs, ok := s.replays[id]
	s.rmu.Unlock()
	if !ok {
		return ReplayStatus{}, false
	}
	return rs.status(), true
}

// StopReplay tears a session down, folding its counters into the metrics
// totals; it reports whether the session existed.
func (s *Server) StopReplay(id string) bool {
	rs := s.dropReplay(id)
	if rs == nil {
		return false
	}
	rs.srv.Close()
	return true
}

// dropReplay unregisters a session and accumulates its final counters.
func (s *Server) dropReplay(id string) *replaySession {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	rs, ok := s.replays[id]
	if !ok {
		return nil
	}
	delete(s.replays, id)
	st := rs.srv.Stats()
	s.rtotals.subscribers += st.SubscribersTotal
	s.rtotals.emitted += st.Emitted
	s.rtotals.dropped += st.Dropped
	s.rtotals.disconnected += st.Disconnected
	return rs
}

// closeReplays tears down every session (server shutdown). Setting
// replaysClosed under rmu fences concurrent StartReplay calls: a session
// either registers before the snapshot (and is closed here) or observes the
// flag and refuses.
func (s *Server) closeReplays() {
	s.rmu.Lock()
	s.replaysClosed = true
	sessions := make([]*replaySession, 0, len(s.replays))
	for _, rs := range s.replays {
		sessions = append(sessions, rs)
	}
	s.rmu.Unlock()
	for _, rs := range sessions {
		s.StopReplay(rs.id)
	}
}

// ReplayMetrics aggregates the replay subsystem for /metrics: live sessions
// plus the accumulated counters of deleted ones.
type ReplayMetrics struct {
	// SessionsActive counts sessions still emitting; Sessions counts every
	// registered session (finished ones linger until DELETE); SessionsTotal
	// counts every session ever started.
	SessionsActive int
	Sessions       int
	SessionsTotal  int64
	// Subscribers is the current connection count across sessions;
	// SubscribersTotal counts every subscriber that ever connected.
	Subscribers      int
	SubscribersTotal int64
	// Emitted counts flows released by the replay clocks; Dropped and
	// Disconnected count the per-policy lag outcomes.
	Emitted      int64
	Dropped      int64
	Disconnected int64
	// FlowsPerSec sums the emission rate of the currently-active sessions.
	FlowsPerSec float64
}

// replayMetrics snapshots the replay subsystem.
func (s *Server) replayMetrics() ReplayMetrics {
	s.rmu.Lock()
	sessions := make([]*replaySession, 0, len(s.replays))
	for _, rs := range s.replays {
		sessions = append(sessions, rs)
	}
	m := ReplayMetrics{
		SessionsTotal:    s.rseq.Load(),
		SubscribersTotal: s.rtotals.subscribers,
		Emitted:          s.rtotals.emitted,
		Dropped:          s.rtotals.dropped,
		Disconnected:     s.rtotals.disconnected,
	}
	s.rmu.Unlock()
	m.Sessions = len(sessions)
	for _, rs := range sessions {
		st := rs.srv.Stats()
		if !st.Done {
			m.SessionsActive++
			m.FlowsPerSec += st.FlowsPerSec
		}
		m.Subscribers += st.Subscribers
		m.SubscribersTotal += st.SubscribersTotal
		m.Emitted += st.Emitted
		m.Dropped += st.Dropped
		m.Disconnected += st.Disconnected
	}
	return m
}

// artifactFormat recovers an artifact's format from the job records that
// named it ("" when none did — e.g. a cache-warmed artifact).
func (s *Server) artifactFormat(artifact string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.formats[artifact]
}

// ArtifactSHA unpacks an artifact id — the hex SHA-256 of its spec — into the
// form a stream header carries, so subscribers can tie a stream back to the
// artifact; anything else is the zero "unknown" address.
func ArtifactSHA(id string) (sha [32]byte) {
	if sum, err := hex.DecodeString(id); err == nil && len(sum) == len(sha) {
		copy(sha[:], sum)
	}
	return sha
}

// NewReplayServer builds a replay server from artifact bytes — the one path
// from an artifact to a stream, shared by csbd sessions and cmd/csbreplay. A
// csbf artifact's flow section is already the server's send slab, so it is
// handed over as it is — no decode, no copy; the stream then carries exactly
// the artifact's flow bytes, and data must not be modified while the server
// lives. Everything else, and a csbf whose records are out of start-time
// order (scenario artifacts never are: Finish sorts them), goes through
// ReplayFlows and is re-encoded.
func NewReplayServer(data []byte, format string, opts replay.Options) (*replay.Server, error) {
	if format == FormatCSBF {
		if slab, err := replay.FlowSection(data); err == nil {
			if rsrv, err := replay.NewServerFromRecords(slab, opts); err == nil {
				return rsrv, nil
			}
		}
		// Fall through: the decode path reports a malformed artifact or bad
		// options with its own message, and sorts unsorted records.
	}
	flows, err := ReplayFlows(data, format)
	if err != nil {
		return nil, err
	}
	return replay.NewServer(flows, opts)
}

// ReplayFlows decodes artifact bytes into the flows a replay run emits, in
// emission order. csv (flow records), csbg (graph whose flow projection is
// replayed) and csbf (labeled flow artifact; the flow section replays and
// subscribers re-attach labels from the spec) are flow-shaped; other formats
// have no decoder and are rejected.
func ReplayFlows(data []byte, format string) ([]netflow.Flow, error) {
	var flows []netflow.Flow
	var err error
	switch format {
	case FormatCSV:
		flows, err = netflow.ReadCSV(bytes.NewReader(data))
	case FormatCSBG:
		var g *graph.Graph
		if g, err = graph.Read(bytes.NewReader(data)); err == nil {
			flows = netflow.FlowsFromGraph(g)
		}
	case FormatCSBF:
		// ReadFlowFile stops after the counted records, so the CSBL1 label
		// section trailing a labeled artifact is ignored here — the stream
		// carries exactly the flow section, preserving the byte-identity
		// contract between stream payloads and the artifact's flow bytes.
		flows, err = replay.ReadFlowFile(bytes.NewReader(data))
	default:
		err = fmt.Errorf("artifact format %q is not replayable (want %s, %s or %s)",
			format, FormatCSV, FormatCSBG, FormatCSBF)
	}
	if err != nil {
		return nil, err
	}
	// The replay contract wants non-decreasing start times. Assembled csv and
	// compiled scenarios are already sorted and graph projections are
	// all-zero, so this rarely has anything to do; inputs from other tools may
	// not be.
	netflow.SortByStart(flows)
	return flows, nil
}

// handleReplayStart is POST /replay.
func (s *Server) handleReplayStart(w http.ResponseWriter, r *http.Request) {
	var req ReplayRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid replay request: "+err.Error())
		return
	}
	st, err := s.StartReplay(req)
	if err != nil {
		var se *submitErr
		if errors.As(err, &se) {
			httpError(w, se.code, se.msg)
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// handleReplayStatus is GET /replay/{id}.
func (s *Server) handleReplayStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.ReplayStatusByID(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such replay session")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleReplayStop is DELETE /replay/{id}.
func (s *Server) handleReplayStop(w http.ResponseWriter, r *http.Request) {
	if !s.StopReplay(r.PathValue("id")) {
		httpError(w, http.StatusNotFound, "no such replay session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
