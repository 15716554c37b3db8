package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"csb/internal/cluster"
	"csb/internal/journal"
)

// JournalTaskDone is the journal record kind of one checkpointed task
// result: key = content hash of (kind, payload), payload = result bytes.
// serve's journal compaction retains these records while jobs are
// incomplete and drops them once every journaled job is terminal.
const JournalTaskDone = "task.done"

// CheckpointedCoordinator wraps a Coordinator so every completed remote task
// result is checkpointed into a write-ahead journal, keyed by the content
// hash of its (kind, payload). A coordinator restarted mid-build replays
// those records and answers the repeated dispatches from the checkpoint
// instead of re-running them — the sharded build resumes where it died.
//
// Correctness rests on the dist invariant that task results are pure
// functions of their payload bytes (internal/dist/task): a checkpoint hit is
// byte-identical to a re-execution, so retried, speculative and post-restart
// attempts all converge on the same committed bytes. The embedded
// Coordinator keeps serving the rest of the DistPool surface (topology,
// counters) unchanged.
type CheckpointedCoordinator struct {
	*Coordinator
	jl *journal.Journal

	mu   sync.Mutex
	done map[string][]byte // checkpoint key -> result bytes

	hits atomic.Int64
}

// Checkpointed wraps co with journal-backed task checkpoints, loading every
// replayed task.done record as an already-answered task. The journal is
// shared with serve's job lifecycle records; each layer ignores the other's
// kinds.
func Checkpointed(co *Coordinator, jl *journal.Journal) *CheckpointedCoordinator {
	c := &CheckpointedCoordinator{Coordinator: co, jl: jl, done: make(map[string][]byte)}
	for _, rec := range jl.Records() {
		if rec.Kind == JournalTaskDone {
			c.done[rec.Key] = rec.Payload
		}
	}
	return c
}

// checkpointKey content-addresses one task dispatch. The attempt number is
// deliberately absent: every attempt of the same work shares the key, so a
// retry after restart hits the checkpoint of the attempt that completed.
func checkpointKey(kind string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// CheckpointHits returns how many dispatches were answered from the journal
// instead of being re-executed.
func (c *CheckpointedCoordinator) CheckpointHits() int64 { return c.hits.Load() }

// CheckpointedTasks returns how many distinct task results are held.
func (c *CheckpointedCoordinator) CheckpointedTasks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// ExecRemote implements cluster.TaskExecutor: a dispatch whose (kind,
// payload) hash is already checkpointed returns the recorded result without
// touching a worker; anything else goes through the inner coordinator and is
// journaled on success. Declines (no live worker) and failures are not
// checkpointed — they re-enter the engine's local-fallback/retry paths
// exactly as without checkpointing.
func (c *CheckpointedCoordinator) ExecRemote(ctx context.Context, stage cluster.StageInfo, att cluster.AttemptInfo, kind string, payload func() []byte) ([]byte, error) {
	body := payload()
	key := checkpointKey(kind, body)
	c.mu.Lock()
	if res, ok := c.done[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return append([]byte(nil), res...), nil
	}
	c.mu.Unlock()
	res, err := c.Coordinator.ExecRemote(ctx, stage, att, kind, func() []byte { return body })
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, ok := c.done[key]; !ok {
		c.done[key] = append([]byte(nil), res...)
		// Fsync'd before the result is returned: once the engine commits
		// this attempt, a restart is guaranteed to find the checkpoint.
		c.jl.Append(journal.Record{Kind: JournalTaskDone, Key: key, Payload: res})
	}
	c.mu.Unlock()
	return res, nil
}
