// End-to-end tests of the distributed runtime: real coordinator, real TCP,
// real worker loops — asserting the PR's core invariant that artifact bytes
// are identical in-process, on 1 worker, on 4 workers, and across a worker
// kill mid-stage.
package dist_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"csb/internal/cluster"
	"csb/internal/dist"
	"csb/internal/dist/task"
	"csb/internal/serve"
)

func init() {
	// disttest.slow: echo the payload after a short delay, so a stage stays
	// in flight long enough for a mid-stage worker kill to land.
	task.Register("disttest.slow", func(payload []byte) ([]byte, error) {
		time.Sleep(20 * time.Millisecond)
		return payload, nil
	})
}

// pool is a coordinator plus n in-process workers, each cancellable on its
// own (kill(i) simulates a worker process dying: its connection drops and
// its in-flight tasks fail into the engine's retry path).
type pool struct {
	co      *dist.Coordinator
	workers []*dist.Worker
	runDone []chan struct{} // closed when the worker's Run returns
	cancels []context.CancelFunc
	wg      sync.WaitGroup
}

func startPool(t *testing.T, n int) *pool {
	return startPoolCfg(t, n, dist.Config{
		Addr:             "127.0.0.1:0",
		HeartbeatTimeout: 2 * time.Second,
		TaskTimeout:      10 * time.Second,
	}, nil)
}

// startPoolCfg starts a pool with a custom coordinator config and an
// optional per-worker config hook (chaos wrapping, names).
func startPoolCfg(t *testing.T, n int, cfg dist.Config, workerCfg func(i int, wc *dist.WorkerConfig)) *pool {
	t.Helper()
	co, err := dist.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &pool{co: co}
	t.Cleanup(func() {
		for _, cancel := range p.cancels {
			cancel()
		}
		p.wg.Wait()
		co.Close()
	})
	for i := 0; i < n; i++ {
		wcfg := dist.WorkerConfig{
			Coordinator:       co.Addr(),
			Name:              fmt.Sprintf("w%d", i),
			HeartbeatInterval: 100 * time.Millisecond,
		}
		if workerCfg != nil {
			workerCfg(i, &wcfg)
		}
		w, err := dist.NewWorker(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		p.workers = append(p.workers, w)
		p.cancels = append(p.cancels, cancel)
		done := make(chan struct{})
		p.runDone = append(p.runDone, done)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer close(done)
			w.Run(ctx)
		}()
	}
	waitLive(t, co, n)
	return p
}

// kill cancels one worker's context, tearing its connection down.
func (p *pool) kill(i int) { p.cancels[i]() }

func waitLive(t *testing.T, co *dist.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for co.LiveWorkers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers registered", co.LiveWorkers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// buildDigest runs one fixed-seed generation job on a cluster wired to ex
// (nil = in-process) and returns the artifact's SHA-256.
func buildDigest(t *testing.T, ex cluster.TaskExecutor, format string) [32]byte {
	t.Helper()
	spec := serve.Spec{Generator: serve.GenPGSK, Edges: 4000, Seed: 7, Format: format}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{Nodes: 2, CoresPerNode: 4, Executor: ex})
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
	if len(data) == 0 {
		t.Fatal("empty artifact")
	}
	return sha256.Sum256(data)
}

func TestArtifactDigestsMatchAcrossWorkerCounts(t *testing.T) {
	for _, format := range []string{"tsv", "csv", "ndjson"} {
		t.Run(format, func(t *testing.T) {
			golden := buildDigest(t, nil, format)

			one := startPool(t, 1)
			if got := buildDigest(t, one.co, format); got != golden {
				t.Fatalf("1-worker digest %x != in-process %x", got, golden)
			}

			four := startPool(t, 4)
			if got := buildDigest(t, four.co, format); got != golden {
				t.Fatalf("4-worker digest %x != in-process %x", got, golden)
			}
			if _, _, _, dispatched, _ := four.co.Counts(); dispatched == 0 {
				t.Fatal("no tasks were dispatched to workers")
			}
		})
	}
}

func TestWorkerKillMidStageRedispatches(t *testing.T) {
	p := startPool(t, 4)

	// A 32-task remotable stage of slow echo tasks; kill one worker once the
	// stage is in flight. Its tasks fail, consume one retry each, and hash
	// onto the survivors — the collected output must be unchanged.
	c := cluster.MustNew(cluster.Config{Nodes: 1, CoresPerNode: 8, Executor: p.co})
	in := make([]int, 256)
	for i := range in {
		in[i] = i
	}
	ds := cluster.Parallelize(c, in, 32)
	done := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond) // mid-stage: tasks take >=20ms each
		p.kill(2)
		close(done)
	}()
	out := cluster.Collect(cluster.MapPartitionsRemotable(ds, "disttest.slow",
		func(part int, xs []int) []int { return xs },
		func(part int, xs []int) []byte {
			b := make([]byte, 8*len(xs))
			for i, x := range xs {
				binary.BigEndian.PutUint64(b[8*i:], uint64(x))
			}
			return b
		},
		func(result []byte) ([]int, error) {
			if len(result)%8 != 0 {
				return nil, fmt.Errorf("ragged result")
			}
			xs := make([]int, len(result)/8)
			for i := range xs {
				xs[i] = int(binary.BigEndian.Uint64(result[8*i:]))
			}
			return xs, nil
		}))
	<-done
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("collected %d values, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("value %d = %d, want %d", i, out[i], in[i])
		}
	}
}

func TestWorkerKillMidBuildByteIdentical(t *testing.T) {
	// The acceptance-criterion shape: a full fixed-seed generation job with a
	// worker killed mid-run still digests identically to in-process.
	golden := buildDigest(t, nil, "tsv")
	p := startPool(t, 4)
	killed := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		p.kill(0)
		close(killed)
	}()
	if got := buildDigest(t, p.co, "tsv"); got != golden {
		t.Fatalf("digest after worker kill %x != in-process %x", got, golden)
	}
	<-killed
	if _, live, lost, _, _ := p.co.Counts(); live != 3 || lost == 0 {
		t.Fatalf("live=%d lost=%d after kill, want 3 live, >0 lost", live, lost)
	}
}

func TestWorkerLossDetectedByHeartbeatDeadline(t *testing.T) {
	p := startPool(t, 2)
	p.kill(1)
	deadline := time.Now().Add(10 * time.Second)
	for p.co.LiveWorkers() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker loss not detected; %d live", p.co.LiveWorkers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	ws := p.co.Workers()
	live := 0
	for _, w := range ws {
		if w.Live {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("Workers() reports %d live entries: %+v", live, ws)
	}
}

func TestServeReadyGateAndWorkersEndpoint(t *testing.T) {
	p := startPool(t, 1)
	srv, err := serve.New(serve.Config{Workers: 1, Dist: p.co, MinWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if ready, reason := srv.Ready(); ready {
		t.Fatalf("ready with 1/2 workers (%s)", reason)
	}
	m := srv.Metrics()
	if m.Dist == nil || m.Dist.WorkersLive != 1 || m.Dist.MinWorkers != 2 {
		t.Fatalf("Dist metrics = %+v", m.Dist)
	}

	srv2, err := serve.New(serve.Config{Workers: 1, Dist: p.co, MinWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if ready, reason := srv2.Ready(); !ready {
		t.Fatalf("not ready with 1/1 workers: %s", reason)
	}
}
