package cluster

// executor.go is the pluggable task-execution seam of the engine. Every
// stage attempt historically ran its closure on the local goroutine pool;
// this file extracts the decision "where does this attempt execute" into a
// TaskExecutor so a distributed runtime (internal/dist) can dispatch
// remotable stages to worker processes while the commit-slot machinery of
// fault.go — at-most-once commits and retries — stays exactly the same for
// both paths. A cluster without an Executor behaves as before.

import (
	"context"
	"errors"
)

// ErrNoRemote is returned by a TaskExecutor to decline a remote dispatch
// (for example when no worker is live); the attempt then falls back to the
// local closure instead of consuming a retry.
var ErrNoRemote = errors.New("cluster: no remote execution available")

// StageInfo identifies one engine stage to a TaskExecutor. Seq is the
// deterministic stage sequence number assigned by the orchestrating
// goroutine, so executors can route on it reproducibly.
type StageInfo struct {
	Op    string
	Label string
	Seq   uint64
}

// AttemptInfo identifies one task attempt within a stage.
type AttemptInfo struct {
	Task    int
	Attempt int
}

// RemoteStage describes how a stage's tasks can execute in another process:
// Payload renders task i as self-contained bytes (a registered task kind
// recomputes it anywhere — see internal/dist/task), and Apply installs a
// worker's result bytes as task i's output. Apply runs under the task's
// commit lock, so it is the remote path's equivalent of the local closure:
// it must be deterministic and must produce exactly the elements the local
// closure would.
type RemoteStage struct {
	// Kind names the registered remote computation.
	Kind string
	// Payload renders one task as self-contained input bytes.
	Payload func(task int) []byte
	// Apply installs a worker's result bytes as the task's output.
	Apply func(task int, result []byte) error
}

// TaskExecutor decides where remotable task attempts run. Implementations
// must be safe for concurrent use; attempts of one stage dispatch in
// parallel.
type TaskExecutor interface {
	// ExecRemote dispatches one remotable task attempt and returns its
	// result bytes. payload is a thunk so declining executors never pay the
	// serialization. Returning ErrNoRemote (wrapped or not) makes the
	// attempt run its local closure instead — it is not a failure. Any other
	// error fails the attempt and consumes a retry, which is how a lost
	// worker's in-flight tasks re-disperse through the engine's existing
	// retry/backoff budget.
	ExecRemote(ctx context.Context, stage StageInfo, att AttemptInfo, kind string, payload func() []byte) ([]byte, error)
}
