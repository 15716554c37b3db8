package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"csb/internal/cluster"
	"csb/internal/graph"
)

// chaosCluster builds the engine configuration of one chaos matrix point:
// the same virtual topology throughout (partitioning — and therefore RNG
// streams — must not vary), with only fault rate and real parallelism
// changing.
func chaosCluster(t *testing.T, rate float64, maxParallel int) *cluster.Cluster {
	t.Helper()
	cfg := cluster.Config{
		Nodes: 2, CoresPerNode: 2, MaxParallel: maxParallel,
		MaxTaskRetries: 8,
	}
	if rate > 0 {
		// The -fault-rate plan itself. The fixed seed makes its schedule
		// deterministic, and at these rates no task exhausts the budget.
		cfg.Faults = cluster.NewFaultPlan(1234, rate)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChaosMatrixGeneratorsByteIdentical is the acceptance criterion of the
// fault model: for both generators, every (fault rate, parallelism) matrix
// point must produce Graph.Write output byte-identical to the fault-free
// run — injected panics, transient errors, straggler delays and retries
// may change the schedule but never the artifact.
func TestChaosMatrixGeneratorsByteIdentical(t *testing.T) {
	seed := traceSeed(t, 20, 250, 3)
	generators := map[string]func(c *cluster.Cluster) Generator{
		"pgpba": func(c *cluster.Cluster) Generator {
			return &PGPBA{Fraction: 0.5, Seed: 77, Cluster: c}
		},
		"pgsk": func(c *cluster.Cluster) Generator {
			return &PGSK{Seed: 77, Cluster: c}
		},
	}
	for name, mk := range generators {
		t.Run(name, func(t *testing.T) {
			render := func(rate float64, maxParallel int) []byte {
				c := chaosCluster(t, rate, maxParallel)
				g, err := mk(c).Generate(seed, 4000)
				if err != nil {
					t.Fatalf("rate %.2f par %d: %v", rate, maxParallel, err)
				}
				if err := c.Err(); err != nil {
					t.Fatalf("rate %.2f par %d: cluster failed: %v", rate, maxParallel, err)
				}
				var buf bytes.Buffer
				if err := g.Write(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			want := render(0, 1)
			for _, rate := range []float64{0, 0.05, 0.2} {
				for _, par := range []int{1, 4} {
					if got := render(rate, par); !bytes.Equal(got, want) {
						t.Errorf("rate %.2f par %d: output differs (%d vs %d bytes)",
							rate, par, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestGeneratorSurfacesStageError asserts the clean-failure half of the
// contract at the generator level: a fault plan that exhausts the retry
// budget surfaces as an error from Generate (a *StageError via Cluster.Err)
// without crashing the process.
func TestGeneratorSurfacesStageError(t *testing.T) {
	seed := traceSeed(t, 20, 250, 3)
	c, err := cluster.New(cluster.Config{
		Nodes: 1, CoresPerNode: 2, MaxParallel: 2,
		MaxTaskRetries: -1, // attempts are final
		Faults:         &cluster.FaultPlan{Seed: 9, PanicRate: 0.5, ErrorRate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var g *graph.Graph
	g, err = (&PGPBA{Fraction: 0.5, Seed: 77, Cluster: c}).Generate(seed, 4000)
	if err == nil {
		t.Fatalf("Generate succeeded under a certain-failure plan: %v", g)
	}
	var se *cluster.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *cluster.StageError", err, err)
	}
	if se.Op == "" || se.Attempts != 1 {
		t.Errorf("StageError not populated: %+v", se)
	}
	// The error message carries enough to find the failing task.
	msg := fmt.Sprintf("%v", err)
	if msg == "" || se.Error() != msg {
		t.Errorf("unexpected error rendering: %q", msg)
	}
}
