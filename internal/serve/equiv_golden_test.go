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
// fixed seed. They were last re-derived when every draw was keyed to a block
// of the element index instead of a partition, which made the cluster shape
// placement only.
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

// equivCell is one cell of the equivalence matrix: a cluster shape,
// MaxParallel, a fault rate and whether an executor runs the remotable
// tasks. None of them is an input to artifact bytes.
type equivCell struct {
	nodes, cores, par int
	faultRate         float64
	remote            bool
}

var equivCells = []equivCell{
	{1, 1, 1, 0, false},
	{2, 4, 16, 0, false},
	{1, 2, 1, 0.2, false},
	{4, 4, 16, 0.2, false},
	{2, 4, 16, 0, true},
}

// cluster builds the cell's cluster, with exec as its executor when the
// cell is remote.
func (cl equivCell) cluster(exec cluster.TaskExecutor) *cluster.Cluster {
	cfg := cluster.Config{Nodes: cl.nodes, CoresPerNode: cl.cores, MaxParallel: cl.par}
	if cl.remote {
		cfg.Executor = exec
	}
	if cl.faultRate > 0 {
		cfg.Faults = cluster.NewFaultPlan(1234, cl.faultRate)
		cfg.MaxTaskRetries = 8
		cfg.Speculation = true
	}
	return cluster.MustNew(cfg)
}

func (cl equivCell) String() string {
	return fmt.Sprintf("%dx%d par=%d fault=%v exec=%v", cl.nodes, cl.cores, cl.par, cl.faultRate, cl.remote)
}

// TestArtifactEquivalenceGolden locks the byte-exact artifact output of both
// generators in every artifact format across the determinism matrix: shapes
// 1x1, 1x2, 2x4 and 4x4, MaxParallel 1 vs 16, fault rate 0 vs 0.2, plus a
// cell whose executor runs every remotable task through task.Run, so the text
// formats take the chunked row-stage path. All five cells must agree with
// each other and with the committed digest.
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
				runner := &taskRunner{}
				digests := make([]string, len(equivCells))
				for i, cl := range equivCells {
					data, err := BuildArtifact(context.Background(), spec, cl.cluster(runner))
					if err != nil {
						t.Fatalf("%v: %v", cl, err)
					}
					sum := sha256.Sum256(data)
					digests[i] = hex.EncodeToString(sum[:])
				}
				for i := 1; i < len(digests); i++ {
					if digests[i] != digests[0] {
						t.Fatalf("artifact bytes depend on the execution cell:\n  %v: %s\n  %v: %s",
							equivCells[0], digests[0], equivCells[i], digests[i])
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
