// Robustness tests for the distributed runtime: graceful drain, circuit
// breakers, a journaled coordinator's restart mid-job, and the chaosnet
// determinism matrix — fixed-seed wire faults under which golden digests
// must hold.
package dist_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csb/internal/chaosnet"
	"csb/internal/cluster"
	"csb/internal/dist"
	"csb/internal/dist/task"
	"csb/internal/journal"
	"csb/internal/serve"
)

func init() {
	// disttest.fail: always errors, to trip circuit breakers on demand.
	task.Register("disttest.fail", func(payload []byte) ([]byte, error) {
		return nil, errors.New("induced task failure")
	})
}

// execOnce drives one direct ExecRemote dispatch.
func execOnce(ex cluster.TaskExecutor, kind string, attempt int) ([]byte, error) {
	return ex.ExecRemote(context.Background(),
		cluster.StageInfo{Op: "test", Seq: 1},
		cluster.AttemptInfo{Task: 0, Attempt: attempt},
		kind, func() []byte { return []byte("payload") })
}

func TestWorkerGracefulDrain(t *testing.T) {
	golden := buildDigest(t, nil, "tsv")
	p := startPool(t, 2)

	p.workers[0].Drain()
	// Drain ends the session and Run returns nil (no reconnect loop).
	select {
	case <-p.runDone[0]:
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker's Run did not return")
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.co.LiveWorkers() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("drained worker still registered; %d live", p.co.LiveWorkers())
		}
		time.Sleep(5 * time.Millisecond) // paces a poll of the live-worker count
	}
	if _, _, drained := p.co.BreakerStats(); drained != 1 {
		t.Fatalf("drains announced = %d, want 1", drained)
	}
	// The survivor carries the build; bytes unchanged.
	if got := buildDigest(t, p.co, "tsv"); got != golden {
		t.Fatalf("digest after drain %x != in-process %x", got, golden)
	}
	// Draining twice is a no-op.
	p.workers[0].Drain()
}

func TestBreakerEvictsFlappingWorkerThenProbation(t *testing.T) {
	p := startPoolCfg(t, 1, dist.Config{
		Addr:             "127.0.0.1:0",
		HeartbeatTimeout: 2 * time.Second,
		TaskTimeout:      10 * time.Second,
		BreakerTrips:     3,
		BreakerCooldown:  200 * time.Millisecond,
	}, nil)

	// Three consecutive failures open the breaker.
	for i := 0; i < 3; i++ {
		if _, err := execOnce(p.co, "disttest.fail", i); err == nil ||
			errors.Is(err, cluster.ErrNoRemote) {
			t.Fatalf("failure %d: err = %v, want a real task error", i, err)
		}
	}
	opened, _, _ := p.co.BreakerStats()
	if opened != 1 {
		t.Fatalf("breakers opened = %d, want 1", opened)
	}
	// Open breaker: the worker is unrouted, dispatch declines to local.
	if _, err := execOnce(p.co, "disttest.slow", 0); !errors.Is(err, cluster.ErrNoRemote) {
		t.Fatalf("dispatch with open breaker: err = %v, want ErrNoRemote", err)
	}
	ws := p.co.Workers()
	if len(ws) == 0 || ws[0].Breaker != "open" {
		t.Fatalf("worker breaker state = %+v, want open", ws)
	}
	// The worker stays connected the whole time — breakers unroute, they
	// don't disconnect.
	if p.co.LiveWorkers() != 1 {
		t.Fatalf("flapping worker disconnected; %d live", p.co.LiveWorkers())
	}

	// After the cooldown the next pick re-admits on probation; a success
	// closes the breaker fully.
	time.Sleep(300 * time.Millisecond) // waits out the 200 ms cooldown; load only lengthens the wait
	if res, err := execOnce(p.co, "disttest.slow", 1); err != nil || string(res) != "payload" {
		t.Fatalf("probation dispatch = (%q, %v), want payload echo", res, err)
	}
	if _, readmitted, _ := p.co.BreakerStats(); readmitted != 1 {
		t.Fatalf("readmissions = %d, want 1", readmitted)
	}
	if ws := p.co.Workers(); ws[0].Breaker != "closed" || ws[0].BreakerTrips != 0 {
		t.Fatalf("post-probation state = %+v, want closed/0", ws[0])
	}

	// A probation failure re-opens immediately (trips restart at K-1).
	for i := 0; i < 3; i++ {
		execOnce(p.co, "disttest.fail", 10+i)
	}
	time.Sleep(300 * time.Millisecond)  // waits out the 200 ms cooldown again
	execOnce(p.co, "disttest.fail", 20) // probation re-admit, then fail
	if opened, _, _ := p.co.BreakerStats(); opened != 3 {
		t.Fatalf("breakers opened = %d, want 3 (initial, re-open, probation re-open)", opened)
	}
}

// holdConn stalls a worker's reads while hold is set: a dispatched task
// waits unread, so the build it belongs to stays mid-job, while the
// worker's heartbeats still flow and keep it live.
type holdConn struct {
	net.Conn
	hold    *atomic.Bool
	release <-chan struct{}
}

func (c *holdConn) Read(b []byte) (int, error) {
	if c.hold.Load() {
		<-c.release
	}
	return c.Conn.Read(b)
}

// TestCoordinatorRestartResumesJob is the coordinator half of the
// crash-resume acceptance criterion: a journaled coordinator with 2 workers
// is shut down mid-job, and a new coordinator and pool on the same journal,
// at another engine shape, rebuild the job from its spec, dispatching its
// remote tasks again, to bytes equal to the in-process build.
func TestCoordinatorRestartResumesJob(t *testing.T) {
	golden := buildDigest(t, nil, "tsv")
	spec := serve.Spec{Generator: serve.GenPGSK, Edges: 4000, Seed: 7, Format: "tsv"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(t.TempDir(), "csbd.wal")

	var hold atomic.Bool
	release := make(chan struct{})
	var once sync.Once
	unhold := func() { once.Do(func() { close(release) }) }
	p1 := startPoolCfg(t, 2, dist.Config{
		Addr:             "127.0.0.1:0",
		HeartbeatTimeout: 2 * time.Second,
		TaskTimeout:      10 * time.Second,
	}, func(i int, wc *dist.WorkerConfig) {
		wc.WrapConn = func(c net.Conn) net.Conn { return &holdConn{Conn: c, hold: &hold, release: release} }
	})
	t.Cleanup(unhold) // runs before the pool's cleanup, which waits for the workers
	jl1, err := journal.Open(wal)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := serve.New(serve.Config{Workers: 1, Shape: serve.EngineShape{Nodes: 2, CoresPerNode: 4}, Dist: p1.co, Journal: jl1})
	if err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	if _, err := srv1.Submit(&spec); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, _, dispatched, _ := p1.co.Counts(); dispatched > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the first coordinator never dispatched a task")
		}
		time.Sleep(5 * time.Millisecond) // paces a poll of the dispatch counter
	}
	// The shutdown: Close cancels the build whose task waits unread on the
	// wire and journals nothing terminal for it, so the job resumes.
	srv1.Close()
	jl1.Close()
	unhold()

	jl2, err := journal.Open(wal)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	p2 := startPool(t, 2)
	srv2, err := serve.New(serve.Config{Workers: 1, Dist: p2.co, Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if m := srv2.Metrics(); m.Journal == nil || m.Journal.JobsResumed != 1 {
		t.Fatalf("restarted coordinator's journal metrics = %+v, want 1 job resumed", m.Journal)
	}
	deadline = time.Now().Add(60 * time.Second)
	var data []byte
	for {
		var ok bool
		if data, ok = srv2.Cache().Get(spec.ID()); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resumed job never produced its artifact")
		}
		time.Sleep(10 * time.Millisecond) // paces a poll of the cache
	}
	if got := sha256.Sum256(data); got != golden {
		t.Fatalf("resumed digest %x != in-process %x", got, golden)
	}
	if _, _, _, dispatched, _ := p2.co.Counts(); dispatched == 0 {
		t.Fatal("the restarted coordinator dispatched no task: the job was not rebuilt on the pool")
	}
}

// startChaosPool is startPoolCfg with a chaosnet fault injector under every
// CSBD1 connection: the coordinator listener wraps accepted conns, workers
// wrap their dialed conns.
func startChaosPool(t *testing.T, n int, faults *chaosnet.Faults) *pool {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startPoolCfg(t, n, dist.Config{
		Listener:         faults.Listen(ln),
		HeartbeatTimeout: 2 * time.Second,
		TaskTimeout:      5 * time.Second,
	}, func(i int, wc *dist.WorkerConfig) {
		wc.WrapConn = faults.Wrap
	})
}

// chaosDigest runs the fixed-seed build with a deeper retry budget (wire
// faults burn attempts) and returns its digest.
func chaosDigest(t *testing.T, ex cluster.TaskExecutor) [32]byte {
	t.Helper()
	spec := serve.Spec{Generator: serve.GenPGSK, Edges: 4000, Seed: 7, Format: "tsv"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	// A spec this small drops its Kronecker edges in a few 128-element
	// blocks, so the drop stage sends a few tasks a round; 64
	// partitions cut the row encoding into enough remote tasks that every
	// fault class fires.
	c, err := cluster.New(cluster.Config{
		Nodes: 2, CoresPerNode: 4, DefaultPartitions: 64, Executor: ex,
		MaxTaskRetries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := serve.BuildArtifact(context.Background(), spec, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

// TestChaosNetDeterminismMatrix: every wire fault class, at a fixed seed,
// over a 2-worker build — committed bytes must match the in-process run.
// Corruption never passes silently: the CSBD1 CRC turns it into
// ErrCorruptRPC, the connection drops, and the attempt re-enters the retry
// budget (or local fallback).
func TestChaosNetDeterminismMatrix(t *testing.T) {
	golden := chaosDigest(t, nil)
	cases := []struct {
		name string
		cfg  chaosnet.Config
	}{
		{"latency-jitter-drip", chaosnet.Config{Seed: 7, Latency: 200 * time.Microsecond, Jitter: time.Millisecond, Drip: 512}},
		{"bandwidth-cap", chaosnet.Config{Seed: 7, BandwidthBPS: 8 << 20, Drip: 2048}},
		{"corruption", chaosnet.Config{Seed: 7, CorruptRate: 0.01, GraceOps: 8}},
		{"resets", chaosnet.Config{Seed: 7, ResetRate: 0.01, GraceOps: 8}},
		{"partitions", chaosnet.Config{Seed: 7, PartitionRate: 0.005, GraceOps: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faults := chaosnet.MustNew(tc.cfg)
			p := startChaosPool(t, 2, faults)
			if got := chaosDigest(t, p.co); got != golden {
				t.Fatalf("digest under %s chaos %x != clean %x", tc.name, got, golden)
			}
			st := faults.Stats()
			t.Logf("%s: injected %+v", tc.name, st)
			if tc.cfg.CorruptRate > 0 && st.Corrupted == 0 {
				t.Error("corruption case injected no corruption")
			}
			if tc.cfg.ResetRate > 0 && st.Resets == 0 {
				t.Error("reset case injected no resets")
			}
			if tc.cfg.PartitionRate > 0 && st.Partitions == 0 {
				t.Error("partition case injected no partitions")
			}
		})
	}
}
