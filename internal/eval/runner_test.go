// Runner tests assert the harness's core invariant: results.csv is a pure
// function of the spec — byte-identical across repeated runs, across
// parallelism levels, and across local vs dist-sharded execution — plus a
// golden-file check pinning the smoke grid's exact output (the same bytes CI
// diffs via cmd/csbeval).
package eval_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csb/internal/dist"
	"csb/internal/eval"
)

var update = flag.Bool("update", false, "rewrite golden files")

func loadSpec(t *testing.T, path string) *eval.GridSpec {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sp, err := eval.ParseGrid(f)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// tinySpec is a 2-cell grid for the determinism matrix: big enough to
// exercise both generators, small enough to run four times in one test.
func tinySpec(t *testing.T) *eval.GridSpec {
	t.Helper()
	sp := &eval.GridSpec{
		Name:      "tiny",
		SeedHosts: 40, SeedSessions: 600,
		Generators: []eval.GeneratorSpec{{Name: eval.GenPGSK}, {Name: eval.GenPGPBA}},
		Sizes:      []int64{5000},
		Utility:    eval.UtilityConfig{HeldOutHosts: 40, HeldOutSessions: 600},
	}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	return sp
}

func runGrid(t *testing.T, r *eval.Runner) *eval.RunResult {
	t.Helper()
	r.OutDir = filepath.Join(t.TempDir(), "runs")
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunDeterminismMatrix executes the same grid serially, at high
// parallelism, with a worker-less coordinator (every dispatch declined →
// local fallback), and sharded across two in-process dist workers, and
// requires byte-identical results.csv from all four.
func TestRunDeterminismMatrix(t *testing.T) {
	sp := tinySpec(t)

	serial := runGrid(t, &eval.Runner{Spec: sp, MaxParallel: 1})
	wide := runGrid(t, &eval.Runner{Spec: sp, MaxParallel: 16})
	if !bytes.Equal(serial.CSV, wide.CSV) {
		t.Fatalf("MaxParallel 1 vs 16 differ:\n%s\nvs\n%s", serial.CSV, wide.CSV)
	}

	// Worker-less coordinator: every dispatch is declined and falls back to
	// local execution.
	co, err := dist.NewCoordinator(dist.Config{
		Addr:             "127.0.0.1:0",
		HeartbeatTimeout: 2 * time.Second,
		TaskTimeout:      60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	declined := runGrid(t, &eval.Runner{Spec: sp, MaxParallel: 4, Remote: co})
	if declined.Local != len(sp.Cells()) {
		t.Fatalf("worker-less coordinator: %d local cells, want %d", declined.Local, len(sp.Cells()))
	}
	if !bytes.Equal(serial.CSV, declined.CSV) {
		t.Fatal("local-fallback run differs from serial run")
	}

	// Two live workers: cells shard across them, bytes unchanged.
	co2 := startWorkers(t, 2)
	sharded := runGrid(t, &eval.Runner{Spec: sp, MaxParallel: 4, Remote: co2})
	if sharded.Remote == 0 {
		t.Fatal("no cells executed remotely with 2 live workers")
	}
	if !bytes.Equal(serial.CSV, sharded.CSV) {
		t.Fatalf("dist-sharded run differs from serial run:\n%s\nvs\n%s", serial.CSV, sharded.CSV)
	}
}

// startWorkers boots a coordinator plus n in-process dist workers (the
// pattern of internal/dist's own tests) and waits for them to register.
func startWorkers(t *testing.T, n int) *dist.Coordinator {
	t.Helper()
	co, err := dist.NewCoordinator(dist.Config{
		Addr:             "127.0.0.1:0",
		HeartbeatTimeout: 2 * time.Second,
		TaskTimeout:      60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	running := 0
	for i := 0; i < n; i++ {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Coordinator:       co.Addr(),
			Name:              fmt.Sprintf("evalw%d", i),
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		running++
		go func() {
			defer func() { done <- struct{}{} }()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		for i := 0; i < running; i++ {
			<-done
		}
		co.Close()
	})
	deadline := time.Now().Add(10 * time.Second)
	for co.LiveWorkers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers registered", co.LiveWorkers(), n)
		}
		time.Sleep(5 * time.Millisecond) // paces a poll of the live-worker count
	}
	return co
}

// TestSmokeGridGolden pins the committed smoke grid's exact results.csv.
// This is the same spec the CI eval-smoke job runs through cmd/csbeval; a
// metric or encoding change that shifts any byte fails here first, with
// `go test ./internal/eval -run Golden -update` as the blessed regeneration
// path.
func TestSmokeGridGolden(t *testing.T) {
	sp := loadSpec(t, "testdata/smoke-grid.json")
	res := runGrid(t, &eval.Runner{Spec: sp})

	golden := filepath.Join("testdata", "smoke-results.golden.csv")
	if *update {
		if err := os.WriteFile(golden, res.CSV, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(res.CSV, want) {
		t.Fatalf("results.csv drifted from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", res.CSV, want)
	}

	// The run directory has the full layout: CSV, one log per cell, analysis.
	if _, err := os.Stat(res.CSVPath); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(res.Dir, "analysis.md")); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(res.Dir, "logs", "cell-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != len(sp.Cells()) {
		t.Fatalf("%d cell logs, want %d", len(logs), len(sp.Cells()))
	}
}

// TestRunCancelledContext verifies a pre-cancelled context fails fast rather
// than executing cells.
func TestRunCancelledContext(t *testing.T) {
	sp := tinySpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &eval.Runner{Spec: sp, OutDir: filepath.Join(t.TempDir(), "runs")}
	if _, err := r.Run(ctx); err == nil {
		t.Fatal("cancelled run succeeded")
	}
}

// TestCellErrorNamedOnce: a failing cell's error carries its "eval: cell N
// (…)" prefix exactly once. A PGPBA size below the seed's edge count cannot
// be grown, so the generator refuses it.
func TestCellErrorNamedOnce(t *testing.T) {
	sp := &eval.GridSpec{
		SeedHosts: 20, SeedSessions: 200,
		Generators: []eval.GeneratorSpec{{Name: eval.GenPGPBA, Fraction: 0.5}},
		Sizes:      []int64{100},
	}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	r := &eval.Runner{Spec: sp, OutDir: filepath.Join(t.TempDir(), "runs")}
	_, err := r.Run(context.Background())
	if err == nil {
		t.Fatal("a PGPBA cell below the seed size succeeded")
	}
	const prefix = "eval: cell 0 (pgpba f=0.5 size=100 seed=1 rep=0): "
	if msg := err.Error(); !strings.HasPrefix(msg, prefix) || strings.Count(msg, "eval: cell") != 1 {
		t.Fatalf("err = %q, want one %q prefix", msg, prefix)
	}
}
