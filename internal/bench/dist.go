package bench

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"csb/internal/cluster"
	"csb/internal/dist"
	"csb/internal/serve"
)

// DistResult is one row of the distributed-execution benchmark: a fixed-seed
// PGSK generation job built end to end (generate + encode) on a coordinator
// with Workers local worker processes. Workers 0 is the in-process baseline.
// DigestMatch asserts the PR's core invariant inside the benchmark itself:
// every worker count must produce the in-process artifact bytes.
type DistResult struct {
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	Edges       int64   `json:"edges"`
	EdgesPerSec float64 `json:"edges_per_sec"`
	RemoteTasks int64   `json:"remote_tasks"`
	DigestMatch bool    `json:"digest_match"`
}

// DistSweep benchmarks one generation job at each worker count (0 = pure
// in-process) and checks every artifact digest against the in-process run.
func DistSweep(edges int64, workerCounts []int, rngSeed uint64) ([]DistResult, error) {
	spec := serve.Spec{Generator: serve.GenPGSK, Edges: edges, Seed: rngSeed, Format: serve.FormatTSV}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	build := func(ex cluster.TaskExecutor) ([]byte, int64, float64, error) {
		// An explicit shape: 8 partitions give each of up to 4 workers tasks
		// to take, on any host (the default 1 x 1 placement would leave 2).
		c, err := cluster.New(cluster.Config{Nodes: 1, CoresPerNode: 4, Executor: ex})
		if err != nil {
			return nil, 0, 0, err
		}
		start := time.Now()
		data, err := serve.BuildArtifact(context.Background(), spec, c)
		wall := time.Since(start).Seconds()
		if err != nil {
			return nil, 0, 0, err
		}
		if err := c.Err(); err != nil {
			return nil, 0, 0, err
		}
		return data, c.Metrics().RemoteTasks, wall, nil
	}

	goldenData, _, goldenWall, err := build(nil)
	if err != nil {
		return nil, fmt.Errorf("bench: in-process dist baseline: %w", err)
	}
	golden := sha256.Sum256(goldenData)
	results := []DistResult{{
		Workers: 0, WallSeconds: goldenWall, Edges: edges,
		EdgesPerSec: float64(edges) / goldenWall, DigestMatch: true,
	}}

	for _, n := range workerCounts {
		if n <= 0 {
			continue
		}
		res, err := func() (DistResult, error) {
			co, err := dist.NewCoordinator(dist.Config{Addr: "127.0.0.1:0"})
			if err != nil {
				return DistResult{}, err
			}
			defer co.Close()
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			// Cancel before waiting: the deferred Wait must not run while the
			// workers' context is still live or they block in readFrame forever.
			defer func() {
				cancel()
				wg.Wait()
			}()
			for i := 0; i < n; i++ {
				w, err := dist.NewWorker(dist.WorkerConfig{
					Coordinator: co.Addr(), Name: fmt.Sprintf("bench-w%d", i),
				})
				if err != nil {
					return DistResult{}, err
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.Run(ctx)
				}()
			}
			deadline := time.Now().Add(10 * time.Second)
			for co.LiveWorkers() != n {
				if time.Now().After(deadline) {
					return DistResult{}, fmt.Errorf("bench: only %d/%d workers registered", co.LiveWorkers(), n)
				}
				time.Sleep(2 * time.Millisecond)
			}
			data, remote, wall, err := build(co)
			if err != nil {
				return DistResult{}, fmt.Errorf("bench: dist build with %d workers: %w", n, err)
			}
			return DistResult{
				Workers: n, WallSeconds: wall, Edges: edges,
				EdgesPerSec: float64(edges) / wall,
				RemoteTasks: remote,
				DigestMatch: sha256.Sum256(data) == golden,
			}, nil
		}()
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}
