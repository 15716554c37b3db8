package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"csb/internal/cluster"
	"csb/internal/dist"
	"csb/internal/graph"
	"csb/internal/journal"
	"csb/internal/pcap"
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds concurrent generations (0 means 2).
	Workers int
	// QueueDepth bounds jobs waiting for a worker (0 means 16). A submit
	// that finds the queue full is shed with 429 + Retry-After.
	QueueDepth int
	// JobTimeout is the per-job deadline once a job starts running
	// (0 means 10 minutes).
	JobTimeout time.Duration
	// JobRetries is how many times a failed generation is re-attempted
	// before the job reports failed (0 means 1; negative disables retries).
	// Cancellations and deadline overruns are terminal and never retried —
	// only transient build errors are.
	JobRetries int
	// MaxEdges caps the target edge count a job may request (0 means 50M);
	// admission control rejects larger asks with 400 before queuing.
	MaxEdges int64
	// CacheBytes budgets the in-memory artifact cache (0 means
	// DefaultCacheBytes).
	CacheBytes int64
	// CacheDir enables the disk spill tier of the artifact cache.
	CacheDir string
	// CacheDiskBytes budgets the spill tier (0 means 4x CacheBytes).
	CacheDiskBytes int64
	// Shape fixes the virtual-cluster topology jobs run on. The zero value
	// is 1 node x 1 core; no shape changes an artifact's bytes.
	Shape EngineShape
	// ReplaySessions caps concurrently-running replay sessions (0 means
	// DefaultReplaySessions); POST /replay beyond the cap is shed with 429.
	ReplaySessions int
	// Dist, when non-nil, dispatches remotable engine stages to registered
	// worker processes. Like the fault knobs it is not part of artifact
	// identity: bytes stay identical whether stages run in-process or on
	// workers.
	Dist *dist.Coordinator
	// MinWorkers gates /readyz when distributed: with Dist set, readiness
	// additionally requires at least this many live workers. Zero means
	// ready even with an empty pool (stages fall back to local execution).
	MinWorkers int
	// Journal, when non-nil, makes the job queue crash-safe: every job
	// lifecycle transition is appended to the write-ahead log, and New
	// replays it to re-enqueue jobs that were accepted but never reached a
	// terminal state — so kill -9 mid-build followed by a restart converges
	// to byte-identical artifacts. A coordinator resumes the same way: the
	// job is rebuilt from its spec and every remote task is dispatched
	// again. The caller keeps ownership (Close).
	Journal *journal.Journal
}

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// job is the server-side record of one submitted generation.
type job struct {
	id       string
	spec     Spec
	artifact string // content address (Spec.ID)

	ctx      context.Context // cancelled by DELETE or server shutdown
	cancel   context.CancelFunc
	accepted chan struct{} // closed once Submit has journaled the acceptance

	mu       sync.Mutex
	state    JobState
	errMsg   string
	cacheHit bool
	created  time.Time
	started  time.Time
	finished time.Time
}

// JobStatus is the wire representation of a job (GET /v1/jobs/{id} and the
// POST /v1/jobs response).
type JobStatus struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	Spec       Spec     `json:"spec"`
	ArtifactID string   `json:"artifact_id"`
	// ArtifactURL is set once the artifact is ready to download.
	ArtifactURL string `json:"artifact_url,omitempty"`
	CacheHit    bool   `json:"cache_hit"`
	Error       string `json:"error,omitempty"`
	CreatedAt   string `json:"created_at"`
	// DurationMS is the run time of a finished job in milliseconds.
	DurationMS int64 `json:"duration_ms,omitempty"`
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		State:      j.state,
		Spec:       j.spec,
		ArtifactID: j.artifact,
		CacheHit:   j.cacheHit,
		Error:      j.errMsg,
		CreatedAt:  j.created.UTC().Format(time.RFC3339Nano),
	}
	if j.state == StateDone {
		st.ArtifactURL = "/v1/artifacts/" + j.artifact
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		st.DurationMS = j.finished.Sub(j.started).Milliseconds()
	}
	return st
}

// Server is the dataset-generation service: a bounded job queue in front of
// a worker pool, a content-addressed artifact cache, and the HTTP API of
// cmd/csbd. Create with New, mount Handler, Close to drain.
type Server struct {
	cfg    Config
	cache  *Cache
	tracer *cluster.Tracer

	baseCtx context.Context
	stop    context.CancelCauseFunc

	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	inflight map[string]*job // artifact id -> queued/running job (single-flight)
	closed   bool

	// Replay sessions (internal/replay) keyed by session id; rtotals
	// accumulates the counters of deleted sessions for /metrics.
	rmu           sync.Mutex
	replays       map[string]*replaySession
	replaysClosed bool
	rseq          atomic.Int64
	rtotals       replayTotals

	journal *journal.Journal

	seq         atomic.Int64
	settled     atomic.Uint64 // jobs that have left inflight; see Submit
	running     atomic.Int64
	submitted   atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	canceled    atomic.Int64
	rejected    atomic.Int64
	hits        atomic.Int64 // submits answered from cache or coalesced onto a flight
	misses      atomic.Int64 // submits that had to generate
	retries     atomic.Int64 // job re-attempts after transient build failures
	bytesServed atomic.Int64
	resumed     atomic.Int64 // jobs re-enqueued from the journal at startup
	journalErrs atomic.Int64 // journal appends, compactions and replays that failed

	// buildArtifact is swappable so admission-control tests can hold jobs
	// in "running" deterministically; production builds on a per-job
	// cluster bounded by ctx.
	buildArtifact func(ctx context.Context, spec Spec) ([]byte, error)
}

// New validates cfg and returns a ready Server (workers started).
func New(cfg Config) (*Server, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Workers < 0 {
		return nil, errors.New("serve: Workers must be positive")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.QueueDepth < 0 {
		return nil, errors.New("serve: QueueDepth must be positive")
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	if cfg.MaxEdges == 0 {
		cfg.MaxEdges = defaultMaxEdges
	}
	if cfg.JobRetries == 0 {
		cfg.JobRetries = 1
	} else if cfg.JobRetries < 0 {
		cfg.JobRetries = 0
	}
	// A shape every job's cluster would reject fails here, not job by job.
	if _, err := cfg.Shape.newCluster(context.Background(), nil, nil); err != nil {
		return nil, err
	}
	cache, err := NewCache(cfg.CacheBytes, cfg.CacheDir, cfg.CacheDiskBytes)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		tracer:   cluster.NewTracer(),
		baseCtx:  ctx,
		stop:     stop,
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		replays:  make(map[string]*replaySession),
	}
	s.buildArtifact = func(ctx context.Context, spec Spec) ([]byte, error) {
		var exec cluster.TaskExecutor
		if cfg.Dist != nil {
			exec = cfg.Dist
		}
		c, err := cfg.Shape.newCluster(ctx, s.tracer, exec)
		if err != nil {
			return nil, err
		}
		return BuildArtifact(ctx, spec, c)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.Journal != nil {
		s.journal = cfg.Journal
		s.resumeFromJournal()
	}
	return s, nil
}

// Tracer returns the tracer every job cluster reports its stage spans to;
// /metrics aggregates it into per-op timings.
func (s *Server) Tracer() *cluster.Tracer { return s.tracer }

// Cache returns the artifact cache (read-mostly; exposed for tests and for
// the benchmark, which times a cached Get of its replayed artifact).
func (s *Server) Cache() *Cache { return s.cache }

// errServerClosed is the cause Close cancels every job with: a build it stops
// journals no terminal record, so the next start resumes it as after a crash.
var errServerClosed = errors.New("serve: server closed")

// Close stops accepting jobs, cancels running ones and waits for the
// workers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.stop(errServerClosed)
	close(s.queue)
	s.wg.Wait()
	s.closeReplays()
}

// worker drains the job queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one queued job to a terminal state.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	// Canceled while waiting, or left on the queue of a closing server.
	if j.state != StateQueued || context.Cause(j.ctx) == errServerClosed {
		j.mu.Unlock()
		s.finishInflight(j)
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()

	// Transient build failures are retried with backoff before the job
	// reports failed — the daemon-level mirror of the engine's task
	// attempts. Each attempt gets a fresh timeout; cancellation, deadline
	// overruns and panics are terminal (retrying them would double the
	// client's wait for no benefit).
	s.running.Add(1)
	var data []byte
	var err error
	for attempt := 0; ; attempt++ {
		ctx, cancelTimeout := context.WithTimeout(j.ctx, s.cfg.JobTimeout)
		data, err = s.buildOnce(ctx, j.spec)
		cancelTimeout()
		if err == nil || attempt >= s.cfg.JobRetries || errors.Is(err, errBuildPanic) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			break
		}
		s.retries.Add(1)
		select {
		case <-j.ctx.Done():
		case <-time.After(cluster.JobRetryBackoff.Delay(j.id, attempt+1)):
		}
	}
	s.running.Add(-1)
	// Read before the state is published: a Close after a client saw the
	// job's state must not unwrite its terminal record.
	closing := context.Cause(j.ctx) == errServerClosed

	j.mu.Lock()
	j.finished = time.Now()
	var spills []fileOp
	switch {
	case err == nil:
		// In memory the artifact is servable, so the job is done; the spill
		// files its insert evicted are written below, where no status poll
		// of this job waits for them.
		spills = s.cache.insert(j.artifact, data)
		j.state = StateDone
		s.completed.Add(1)
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.errMsg = "canceled"
		s.canceled.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.errMsg = "job deadline exceeded"
		s.failed.Add(1)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.failed.Add(1)
	}
	final := j.state
	j.mu.Unlock()
	s.finishInflight(j)
	s.cache.runOps(spills)
	<-j.accepted // journaled after the acceptance, or a restart reruns the job
	switch {
	case final == StateDone:
		s.journalAppend(journalJobDone, j.artifact, nil)
	case closing: // stopped by Close, whatever the error: journal nothing, resume on restart
	case final == StateCanceled:
		s.journalAppend(journalJobCanceled, j.artifact, nil)
	default:
		s.journalAppend(journalJobFailed, j.artifact, nil)
	}
}

// errBuildPanic marks a build attempt that panicked.
var errBuildPanic = errors.New("build panicked")

// buildOnce runs one build attempt and turns a panic escaping it into an
// error, as the engine does for its tasks: the job fails, and is journaled
// as failed, instead of the panic killing the daemon — and, with a journal,
// killing it again on every restart that re-enqueues the job.
func (s *Server) buildOnce(ctx context.Context, spec Spec) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			data, err = nil, fmt.Errorf("%w: %v", errBuildPanic, r)
		}
	}()
	return s.buildArtifact(ctx, spec)
}

// finishInflight clears the single-flight slot once a job reaches a
// terminal state.
func (s *Server) finishInflight(j *job) {
	s.mu.Lock()
	if s.inflight[j.artifact] == j {
		delete(s.inflight, j.artifact)
	}
	s.settled.Add(1)
	s.mu.Unlock()
}

// submitErr tags admission failures with the HTTP status to surface.
type submitErr struct {
	code int
	msg  string
}

func (e *submitErr) Error() string { return e.msg }

// defaultMaxEdges is Config.MaxEdges's default.
const defaultMaxEdges = 50_000_000

// maxSessions caps a job's seed-trace sessions: a trace that long costs
// pcap.Synthesize, at its peak, about the bytes of a defaultMaxEdges-edge
// csbg artifact. It does not follow MaxEdges, which sizes the generated
// graph, not the trace it is fitted to.
const maxSessions = defaultMaxEdges * graph.EdgeRecordLen / pcap.SessionBytes

// Submit runs the admission pipeline for a spec (normalized in place) and
// returns the accepted job's status: a cached artifact yields an
// immediately-done job, an identical in-flight job is coalesced, and a full
// queue is refused with a 429-tagged error.
func (s *Server) Submit(spec *Spec) (JobStatus, error) {
	if err := spec.Normalize(); err != nil {
		return JobStatus{}, &submitErr{code: http.StatusBadRequest, msg: err.Error()}
	}
	// Scenario jobs keep their size in the embedded background spec; the
	// admission cap applies to whichever edge target the job would generate.
	// The seed trace it starts from is bounded too: its sessions by
	// maxSessions, its hosts by the trace's address plan.
	edges, hosts, sessions := spec.Edges, spec.Hosts, spec.Sessions
	if spec.Scenario != nil {
		bg := spec.Scenario.Background
		edges, hosts, sessions = bg.Edges, bg.Hosts, bg.Sessions
	}
	var refused string
	switch {
	case edges > s.cfg.MaxEdges:
		refused = fmt.Sprintf("edges %d exceeds the admission cap %d", edges, s.cfg.MaxEdges)
	case sessions > maxSessions:
		refused = fmt.Sprintf("sessions %d exceeds the seed trace's cap %d", sessions, maxSessions)
	case hosts > pcap.MaxHosts:
		refused = fmt.Sprintf("hosts %d exceeds the seed trace's %d addresses", hosts, pcap.MaxHosts)
	}
	if refused != "" {
		return JobStatus{}, &submitErr{code: http.StatusBadRequest, msg: refused}
	}
	s.submitted.Add(1)
	artifact := spec.ID()

	// Cache hit: the artifact already exists, no work to enqueue. Get (not
	// Contains) so disk-tier entries are verified before the job is declared
	// done — a corrupt spill file reads as a miss here, quarantines itself,
	// and falls through to regeneration instead of minting a done job whose
	// artifact would then 404.
	settled := s.settled.Load()
	_, cached := s.cache.Get(artifact)
	s.mu.Lock()
	if !cached {
		if s.closed {
			s.mu.Unlock()
			return JobStatus{}, &submitErr{code: http.StatusServiceUnavailable, msg: "server is shutting down"}
		}
		// Single-flight: an identical job already queued or running absorbs
		// this submit instead of burning a second worker on the same bytes.
		if cur, ok := s.inflight[artifact]; ok {
			s.mu.Unlock()
			s.hits.Add(1)
			return cur.status(), nil
		}
		// A job that put the artifact and left inflight after the Get above
		// has already built it: if any job settled since the Get, look again
		// before admitting a second build. Contains suffices, as an entry it
		// finds was put after the Get, which verified or dropped anything
		// older. Only that window calls the cache under s.mu; Contains
		// takes the cache lock, which no file operation holds.
		cached = s.settled.Load() != settled && s.cache.Contains(artifact)
	}
	if cached {
		s.hits.Add(1)
		j := &job{
			id: s.nextID(), spec: *spec, artifact: artifact,
			state: StateDone, cacheHit: true, created: time.Now(),
		}
		s.jobs[j.id] = j
		s.mu.Unlock()
		return j.status(), nil
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		id: s.nextID(), spec: *spec, artifact: artifact,
		ctx: ctx, cancel: cancel, accepted: make(chan struct{}),
		state: StateQueued, created: time.Now(),
	}
	// The reply is the job as admitted: once it is on the queue a worker may
	// finish it before Submit returns, and a cold job answers "queued".
	admitted := j.status()
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.inflight[artifact] = j
		s.mu.Unlock()
		s.misses.Add(1)
		// Durably record the acceptance before acking the client: if the
		// process dies from here on, restart replays the spec and re-runs
		// the job to the same content-addressed bytes.
		if specJSON, err := json.Marshal(j.spec); err == nil {
			s.journalAppend(journalJobAccepted, artifact, specJSON)
		} else {
			s.journalErrs.Add(1)
		}
		close(j.accepted)
		return admitted, nil
	default:
		s.mu.Unlock()
		cancel()
		s.rejected.Add(1)
		return JobStatus{}, &submitErr{code: http.StatusTooManyRequests, msg: "job queue is full"}
	}
}

// nextID mints a job id.
func (s *Server) nextID() string {
	return "j" + strconv.FormatInt(s.seq.Add(1), 10)
}

// CancelJob cancels a queued or running job; it reports whether the job
// exists. Cancelling a finished job is a no-op.
func (s *Server) CancelJob(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	wasQueued := j.state == StateQueued
	if wasQueued {
		// A queued job flips terminal immediately; the worker skips it.
		j.state = StateCanceled
		j.errMsg = "canceled"
		j.finished = time.Now()
		s.canceled.Add(1)
	}
	cancel := j.cancel
	j.mu.Unlock()
	if wasQueued {
		// Release the single-flight slot now — a resubmit of the same spec
		// must start a fresh job, not coalesce onto this dead one.
		s.finishInflight(j)
		s.journalAppend(journalJobCanceled, j.artifact, nil)
	}
	if cancel != nil {
		cancel() // running jobs stop between engine tasks
	}
	return true
}

// QueueDepth returns the number of jobs waiting for a worker.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Ready reports whether the daemon should receive new traffic, with the
// reason when it should not: a shutting-down server, a saturated job queue
// (new submits would be shed with 429 anyway), or an unusable artifact
// spill tier. This is the /readyz predicate — distinct from /healthz, which
// only answers "is the process alive".
func (s *Server) Ready() (bool, string) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return false, "shutting down"
	}
	if len(s.queue) >= cap(s.queue) {
		return false, "job queue saturated"
	}
	if !s.cache.DiskHealthy() {
		return false, "artifact spill tier unavailable"
	}
	if s.cfg.Dist != nil && s.cfg.MinWorkers > 0 {
		if live := s.cfg.Dist.LiveWorkers(); live < s.cfg.MinWorkers {
			return false, fmt.Sprintf("%d/%d workers live", live, s.cfg.MinWorkers)
		}
	}
	return true, "ok"
}

// Handler returns the HTTP API:
//
//	POST   /v1/jobs            submit a Spec (JSON body)
//	GET    /v1/jobs/{id}       poll job status
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/jobs/{id}/artifact  stream the finished artifact
//	GET    /v1/artifacts/{id}  stream an artifact by content address
//	POST   /replay             start a live replay session of an artifact
//	GET    /replay/{id}        poll replay session status
//	DELETE /replay/{id}        stop a replay session
//	GET    /workers            distributed worker topology (JSON; 404 when
//	                           not running distributed)
//	GET    /healthz            liveness (process is up)
//	GET    /readyz             readiness (queue has room, spill tier usable,
//	                           enough live workers when distributed)
//	GET    /metrics            service + engine-stage metrics (text)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", s.handleJobArtifact)
	mux.HandleFunc("GET /v1/artifacts/{id}", s.handleArtifact)
	mux.HandleFunc("POST /replay", s.handleReplayStart)
	mux.HandleFunc("GET /replay/{id}", s.handleReplayStatus)
	mux.HandleFunc("DELETE /replay/{id}", s.handleReplayStop)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, reason := s.Ready()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, reason+"\n")
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /workers", s.handleWorkers)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// handleWorkers is GET /workers: the coordinator's worker topology.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Dist == nil {
		httpError(w, http.StatusNotFound, "not running distributed")
		return
	}
	registered, live, lost, dispatched, declined := s.cfg.Dist.Counts()
	writeJSON(w, http.StatusOK, map[string]any{
		"registered_total": registered,
		"live":             live,
		"lost_total":       lost,
		"dispatched_total": dispatched,
		"declined_total":   declined,
		"min_workers":      s.cfg.MinWorkers,
		"workers":          s.cfg.Dist.Workers(),
	})
}

// handleSubmit is POST /v1/jobs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "invalid job spec: "+err.Error())
		return
	}
	st, err := s.Submit(&spec)
	if err != nil {
		var se *submitErr
		if errors.As(err, &se) {
			if se.code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", s.retryAfter())
			}
			httpError(w, se.code, se.msg)
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	code := http.StatusAccepted
	if st.State == StateDone {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// retryAfter estimates (in whole seconds) when a shed client should retry:
// one full queue drain at the configured parallelism, clamped to [1, 60].
func (s *Server) retryAfter() string {
	sec := int64(1)
	if n := s.QueueDepth(); n > 0 {
		// Rough per-job cost: half the job deadline is a pessimistic but
		// safe stand-in when no timing history exists yet.
		est := time.Duration(n/s.cfg.Workers+1) * (s.cfg.JobTimeout / 2)
		sec = int64(est / time.Second)
	}
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return strconv.FormatInt(sec, 10)
}

// handleJobStatus is GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobCancel is DELETE /v1/jobs/{id}.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.CancelJob(id) {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusAccepted, s.lookup(id).status())
}

// handleJobArtifact is GET /v1/jobs/{id}/artifact.
func (s *Server) handleJobArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status()
	switch st.State {
	case StateDone:
		s.serveArtifact(w, j.artifact)
	case StateQueued, StateRunning:
		httpError(w, http.StatusConflict, "job is "+string(st.State)+"; poll /v1/jobs/"+j.id)
	default:
		httpError(w, http.StatusGone, "job "+string(st.State)+": "+st.Error)
	}
}

// handleArtifact is GET /v1/artifacts/{id}.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	s.serveArtifact(w, r.PathValue("id"))
}

// serveArtifact streams cached artifact bytes in bounded chunks, each a
// slice of the cached bytes written straight to the response, under the
// content type of the format their leading bytes name. Chunked transfer
// keeps memory flat on the write path and the per-chunk flush hands
// backpressure to the client connection.
func (s *Server) serveArtifact(w http.ResponseWriter, id string) {
	data, ok := s.cache.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "artifact evicted or unknown; resubmit the job")
		return
	}
	w.Header().Set("Content-Type", contentType(artifactFormat(data)))
	w.Header().Set("X-Artifact-Id", id)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	const chunk = 256 << 10
	for len(data) > 0 {
		n := min(chunk, len(data))
		if _, err := w.Write(data[:n]); err != nil {
			return // client went away; bytes up to here still count
		}
		s.bytesServed.Add(int64(n))
		data = data[n:]
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// lookup returns the job record for id, or nil.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg, "status": code})
}
