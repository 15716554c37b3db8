package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"csb/internal/cluster"
	"csb/internal/dist/task"
)

// -update-equiv regenerates the artifact-equivalence digests:
//
//	go test ./internal/serve/ -run TestArtifactEquivalenceGolden -update-equiv
//
// The digests freeze the byte-exact artifact output of every format at a
// fixed seed. They were recorded before the columnar edge-storage refactor
// and prove that generators, shuffles and writers streaming over EdgeBatch
// columns produce bit-identical artifacts to the row-structured originals.
var updateEquiv = flag.Bool("update-equiv", false, "rewrite artifact-equivalence digests under testdata/")

// taskRunner is a TaskExecutor that runs each remotable task's payload
// in-process through task.Run, as a worker does, and declines a kind no
// package registered. ran counts the tasks it ran.
type taskRunner struct{ ran atomic.Int64 }

func (r *taskRunner) ExecRemote(ctx context.Context, stage cluster.StageInfo, att cluster.AttemptInfo, kind string, payload func() []byte) ([]byte, error) {
	out, err := task.Run(kind, payload())
	if err != nil && strings.HasPrefix(err.Error(), "task: unknown kind") {
		return nil, cluster.ErrNoRemote
	}
	r.ran.Add(1)
	return out, err
}

// equivCluster builds the fixed virtual topology the equivalence matrix runs
// on. Only MaxParallel, the fault plan and the executor vary across the
// matrix — all three are documented non-inputs to artifact bytes.
func equivCluster(par int, faultRate float64, exec cluster.TaskExecutor) *cluster.Cluster {
	cfg := cluster.Config{
		Nodes: 2, CoresPerNode: 4, DefaultPartitions: 8, MaxParallel: par, Executor: exec,
	}
	if faultRate > 0 {
		cfg.Faults = cluster.NewFaultPlan(1234, faultRate)
		cfg.MaxTaskRetries = 8
		cfg.Speculation = true
	}
	return cluster.MustNew(cfg)
}

// TestArtifactEquivalenceGolden locks the byte-exact artifact output of both
// generators in every artifact format across the determinism matrix:
// MaxParallel 1 vs 16, fault rate 0 vs 0.2, plus a cell whose executor runs
// every remotable task through task.Run, so the text formats take the chunked
// row-stage path. All five cells must agree with each other and with the
// committed digest.
func TestArtifactEquivalenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence matrix is not short")
	}
	specs := []Spec{
		{Generator: GenPGPBA, Hosts: 25, Sessions: 400, Seed: 42, Fraction: 0.3, Edges: 6000},
		{Generator: GenPGSK, Hosts: 25, Sessions: 400, Seed: 42, Edges: 6000},
	}
	formats := []string{FormatTSV, FormatCSBG, FormatCSV, FormatNDJSON}
	for _, base := range specs {
		for _, format := range formats {
			spec := base
			spec.Format = format
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s-%s", spec.Generator, format)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				type cell struct {
					par       int
					faultRate float64
					remote    bool
				}
				cells := []cell{{1, 0, false}, {16, 0, false}, {1, 0.2, false}, {16, 0.2, false}, {16, 0, true}}
				runner := &taskRunner{}
				digests := make([]string, len(cells))
				for i, cl := range cells {
					var exec cluster.TaskExecutor
					if cl.remote {
						exec = runner
					}
					c := equivCluster(cl.par, cl.faultRate, exec)
					data, err := BuildArtifact(context.Background(), spec, c)
					if err != nil {
						t.Fatalf("par=%d fault=%v exec=%v: %v", cl.par, cl.faultRate, cl.remote, err)
					}
					sum := sha256.Sum256(data)
					digests[i] = hex.EncodeToString(sum[:])
				}
				for i := 1; i < len(digests); i++ {
					if digests[i] != digests[0] {
						t.Fatalf("artifact bytes depend on the execution cell:\n  par=%d fault=%v: %s\n  par=%d fault=%v exec=%v: %s",
							cells[0].par, cells[0].faultRate, digests[0],
							cells[i].par, cells[i].faultRate, cells[i].remote, digests[i])
					}
				}
				if format != FormatCSBG && runner.ran.Load() == 0 {
					t.Fatal("the executor cell ran no task through task.Run")
				}
				path := filepath.Join("testdata", "equiv_"+name+".sha256")
				if *updateEquiv {
					if err := os.WriteFile(path, []byte(digests[0]+"\n"), 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("wrote %s", path)
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("reading equivalence digest (run with -update-equiv to create): %v", err)
				}
				if got := digests[0]; got != strings.TrimSpace(string(want)) {
					t.Fatalf("fixed-seed %s artifact drifted from pre-refactor digest:\n  got  %s\n  want %s\nArtifact bytes are a compatibility contract; regenerate with -update-equiv only for an intended format change.",
						name, got, strings.TrimSpace(string(want)))
				}
			})
		}
	}
}
