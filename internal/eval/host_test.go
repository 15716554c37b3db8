package eval_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"csb/internal/cluster"
	"csb/internal/eval"
	"csb/internal/scenario"
	"csb/internal/serve"
)

// TestHostIndependence is the repo's central promise as one check: what a
// spec names does not depend on the machine. Under GOMAXPROCS 1, 2 and 4 a
// default-shape artifact of each job kind has the same bytes, and the smoke
// grid reproduces the committed golden — so every golden in the tree holds
// on any host, not only the one-core host it was recorded on.
func TestHostIndependence(t *testing.T) {
	specs := map[string]serve.Spec{
		"pgpba": {Generator: serve.GenPGPBA, Hosts: 30, Sessions: 400, Seed: 5, Edges: 20000, Format: serve.FormatCSBG},
		"pgsk":  {Generator: serve.GenPGSK, Hosts: 30, Sessions: 400, Seed: 5, Edges: 20000, Format: serve.FormatCSBG},
		"scenario": {Scenario: &scenario.Spec{
			Seed:       5,
			Background: scenario.Background{Source: scenario.SourcePGPBA, Hosts: 30, Sessions: 400, Edges: 5000},
			Attacks:    []scenario.Attack{{Type: scenario.TypeHostScan, StartMS: 1000, Count: 300}},
		}},
	}
	for name, spec := range specs {
		if err := spec.Normalize(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		specs[name] = spec
	}
	grid := loadSpec(t, "testdata/smoke-grid.json")
	golden, err := os.ReadFile(filepath.Join("testdata", "smoke-results.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	first := map[string][]byte{}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for name, spec := range specs {
			data, err := serve.BuildArtifact(context.Background(), spec, cluster.Local(0))
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, %s: %v", procs, name, err)
			}
			if first[name] == nil {
				first[name] = data
			} else if !bytes.Equal(data, first[name]) {
				t.Errorf("GOMAXPROCS %d: %s artifact differs from the GOMAXPROCS 1 bytes", procs, name)
			}
		}
		if res := runGrid(t, &eval.Runner{Spec: grid}); !bytes.Equal(res.CSV, golden) {
			t.Errorf("GOMAXPROCS %d: smoke grid differs from smoke-results.golden.csv", procs)
		}
	}
}
