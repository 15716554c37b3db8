package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Metrics is a point-in-time snapshot of the service counters, exposed both
// as a struct (for tests and embedding) and as the /metrics text endpoint.
type Metrics struct {
	JobsSubmitted int64
	JobsCompleted int64
	JobsFailed    int64
	JobsCanceled  int64
	JobsRejected  int64
	JobsRunning   int64
	JobRetries    int64
	QueueDepth    int
	Ready         bool
	CacheHits     int64
	CacheMisses   int64
	BytesServed   int64
	Cache         CacheStats
	// Replay aggregates the live-replay subsystem (POST /replay sessions).
	Replay ReplayMetrics
	// Stages aggregates the engine-stage spans of every job cluster by
	// operation name, sorted by op.
	Stages []StageMetric
	// Dist is the distributed worker topology; nil when this daemon is not a
	// coordinator.
	Dist *DistMetrics
	// Journal is the durability WAL snapshot; nil when running without one.
	Journal *JournalMetrics
}

// JournalMetrics snapshots the write-ahead log (Config.Journal).
type JournalMetrics struct {
	// JobsResumed counts jobs re-enqueued from the journal at startup.
	JobsResumed int64
	// AppendErrors counts failed journal writes (appends and the start-up
	// compaction) and unreplayable records.
	AppendErrors int64
	// Replayed is how many records the journal recovered at open.
	Replayed int64
	// TruncatedBytes is the torn tail discarded at open (kill -9 mid-append).
	TruncatedBytes int64
	// Appended counts records written since open; Bytes is the file size.
	Appended int64
	Bytes    int64
}

// DistMetrics snapshots the coordinator's worker pool for /metrics.
type DistMetrics struct {
	WorkersRegistered int64
	WorkersLive       int64
	WorkersLost       int64
	TasksDispatched   int64
	DispatchDeclined  int64
	MinWorkers        int
	// Workers lists live workers plus recent tombstones.
	Workers []WorkerStat
}

// WorkerStat is the per-worker slice of DistMetrics.
type WorkerStat struct {
	Name           string
	Live           bool
	TasksDone      int64
	TasksFailed    int64
	HeartbeatAgeMS int64
}

// StageMetric is the aggregate of all recorded spans of one engine op.
type StageMetric struct {
	Op       string
	Count    int64
	Tasks    int64
	Real     time.Duration // summed host wall time
	Work     time.Duration // summed task work
	BytesIn  int64
	BytesOut int64
	// Fault-tolerance accounting, summed from the engine's task attempts.
	Attempts int64
	Retries  int64
	// Remote counts task attempts committed on distributed workers.
	Remote int64
}

// HitRatio returns cache hits / (hits + misses) at the job-admission level,
// 0 when nothing has been submitted.
func (m Metrics) HitRatio() float64 {
	total := m.CacheHits + m.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(total)
}

// Metrics returns a snapshot of the service counters, including the
// per-stage aggregation of every span the job clusters traced so far.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		JobsSubmitted: s.submitted.Load(),
		JobsCompleted: s.completed.Load(),
		JobsFailed:    s.failed.Load(),
		JobsCanceled:  s.canceled.Load(),
		JobsRejected:  s.rejected.Load(),
		JobsRunning:   s.running.Load(),
		JobRetries:    s.retries.Load(),
		QueueDepth:    s.QueueDepth(),
		CacheHits:     s.hits.Load(),
		CacheMisses:   s.misses.Load(),
		BytesServed:   s.bytesServed.Load(),
		Cache:         s.cache.Stats(),
		Replay:        s.replayMetrics(),
	}
	m.Ready, _ = s.Ready()
	agg := make(map[string]*StageMetric)
	for _, span := range s.tracer.Spans() {
		sm, ok := agg[span.Op]
		if !ok {
			sm = &StageMetric{Op: span.Op}
			agg[span.Op] = sm
		}
		sm.Count++
		sm.Tasks += int64(span.Tasks)
		sm.Real += span.Real
		sm.Work += span.Work
		sm.BytesIn += span.BytesIn
		sm.BytesOut += span.BytesOut
		sm.Attempts += int64(span.Attempts)
		sm.Retries += int64(span.Retries)
		sm.Remote += int64(span.Remote)
	}
	m.Stages = make([]StageMetric, 0, len(agg))
	for _, sm := range agg {
		m.Stages = append(m.Stages, *sm)
	}
	sort.Slice(m.Stages, func(i, j int) bool { return m.Stages[i].Op < m.Stages[j].Op })
	if s.cfg.Dist != nil {
		registered, live, lost, dispatched, declined := s.cfg.Dist.Counts()
		dm := &DistMetrics{
			WorkersRegistered: registered,
			WorkersLive:       live,
			WorkersLost:       lost,
			TasksDispatched:   dispatched,
			DispatchDeclined:  declined,
			MinWorkers:        s.cfg.MinWorkers,
		}
		for _, wi := range s.cfg.Dist.Workers() {
			dm.Workers = append(dm.Workers, WorkerStat{
				Name: wi.Name, Live: wi.Live,
				TasksDone: wi.TasksDone, TasksFailed: wi.TasksFailed,
				HeartbeatAgeMS: wi.HeartbeatAgeMS,
			})
		}
		m.Dist = dm
	}
	if s.journal != nil {
		st := s.journal.Stats()
		m.Journal = &JournalMetrics{
			JobsResumed:    s.resumed.Load(),
			AppendErrors:   s.journalErrs.Load(),
			Replayed:       int64(st.Replayed),
			TruncatedBytes: st.TruncatedBytes,
			Appended:       st.Appended,
			Bytes:          st.Bytes,
		}
	}
	return m
}

// handleMetrics is GET /metrics: a flat, Prometheus-style text rendering.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	var b strings.Builder
	put := func(name string, v any) { fmt.Fprintf(&b, "%s %v\n", name, v) }
	put("csbd_jobs_submitted_total", m.JobsSubmitted)
	put("csbd_jobs_completed_total", m.JobsCompleted)
	put("csbd_jobs_failed_total", m.JobsFailed)
	put("csbd_jobs_canceled_total", m.JobsCanceled)
	put("csbd_jobs_rejected_total", m.JobsRejected)
	put("csbd_jobs_running", m.JobsRunning)
	put("csbd_job_retries_total", m.JobRetries)
	put("csbd_queue_depth", m.QueueDepth)
	ready := 0
	if m.Ready {
		ready = 1
	}
	put("csbd_ready", ready)
	put("csbd_cache_hits_total", m.CacheHits)
	put("csbd_cache_misses_total", m.CacheMisses)
	fmt.Fprintf(&b, "csbd_cache_hit_ratio %.4f\n", m.HitRatio())
	put("csbd_cache_entries", m.Cache.Entries)
	put("csbd_cache_bytes", m.Cache.Bytes)
	put("csbd_cache_disk_entries", m.Cache.DiskEntries)
	put("csbd_cache_disk_bytes", m.Cache.DiskBytes)
	put("csbd_cache_evictions_total", m.Cache.Evictions)
	put("csbd_cache_spills_total", m.Cache.Spills)
	put("csbd_cache_quarantined_total", m.Cache.Quarantined)
	put("csbd_cache_spill_errors_total", m.Cache.SpillErrors)
	put("csbd_bytes_served_total", m.BytesServed)
	put("csbd_replay_sessions_active", m.Replay.SessionsActive)
	put("csbd_replay_sessions", m.Replay.Sessions)
	put("csbd_replay_sessions_total", m.Replay.SessionsTotal)
	put("csbd_replay_subscribers", m.Replay.Subscribers)
	put("csbd_replay_subscribers_total", m.Replay.SubscribersTotal)
	put("csbd_replay_emitted_flows_total", m.Replay.Emitted)
	put("csbd_replay_dropped_frames_total", m.Replay.Dropped)
	put("csbd_replay_disconnected_total", m.Replay.Disconnected)
	fmt.Fprintf(&b, "csbd_replay_flows_per_sec %.2f\n", m.Replay.FlowsPerSec)
	for _, sm := range m.Stages {
		fmt.Fprintf(&b, "csbd_stage_count{op=%q} %d\n", sm.Op, sm.Count)
		fmt.Fprintf(&b, "csbd_stage_tasks_total{op=%q} %d\n", sm.Op, sm.Tasks)
		fmt.Fprintf(&b, "csbd_stage_attempts_total{op=%q} %d\n", sm.Op, sm.Attempts)
		fmt.Fprintf(&b, "csbd_stage_retries_total{op=%q} %d\n", sm.Op, sm.Retries)
		fmt.Fprintf(&b, "csbd_stage_remote_total{op=%q} %d\n", sm.Op, sm.Remote)
		fmt.Fprintf(&b, "csbd_stage_real_seconds_total{op=%q} %.6f\n", sm.Op, sm.Real.Seconds())
		fmt.Fprintf(&b, "csbd_stage_work_seconds_total{op=%q} %.6f\n", sm.Op, sm.Work.Seconds())
		fmt.Fprintf(&b, "csbd_stage_bytes_in_total{op=%q} %d\n", sm.Op, sm.BytesIn)
		fmt.Fprintf(&b, "csbd_stage_bytes_out_total{op=%q} %d\n", sm.Op, sm.BytesOut)
	}
	if m.Dist != nil {
		put("csbd_dist_workers_registered_total", m.Dist.WorkersRegistered)
		put("csbd_dist_workers_live", m.Dist.WorkersLive)
		put("csbd_dist_workers_lost_total", m.Dist.WorkersLost)
		put("csbd_dist_tasks_dispatched_total", m.Dist.TasksDispatched)
		put("csbd_dist_dispatch_declined_total", m.Dist.DispatchDeclined)
		put("csbd_dist_min_workers", m.Dist.MinWorkers)
		for _, ws := range m.Dist.Workers {
			live := 0
			if ws.Live {
				live = 1
			}
			fmt.Fprintf(&b, "csbd_dist_worker_live{worker=%q} %d\n", ws.Name, live)
			fmt.Fprintf(&b, "csbd_dist_worker_tasks_done_total{worker=%q} %d\n", ws.Name, ws.TasksDone)
			fmt.Fprintf(&b, "csbd_dist_worker_tasks_failed_total{worker=%q} %d\n", ws.Name, ws.TasksFailed)
			fmt.Fprintf(&b, "csbd_dist_worker_heartbeat_age_seconds{worker=%q} %.3f\n",
				ws.Name, float64(ws.HeartbeatAgeMS)/1000)
		}
	}
	if m.Journal != nil {
		put("csbd_jobs_resumed_total", m.Journal.JobsResumed)
		put("csbd_journal_append_errors_total", m.Journal.AppendErrors)
		put("csbd_journal_replayed_records", m.Journal.Replayed)
		put("csbd_journal_truncated_bytes", m.Journal.TruncatedBytes)
		put("csbd_journal_appended_total", m.Journal.Appended)
		put("csbd_journal_bytes", m.Journal.Bytes)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
