package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csb/internal/cluster"
)

// -update regenerates the golden digests from the current implementation:
//
//	go test ./internal/core/ -run TestGolden -update
//
// Only do this after verifying that an output change is intended; these
// digests are the contract that fixed-seed generator output never drifts.
var updateGolden = flag.Bool("update", false, "rewrite golden digest files under testdata/")

// edgeListSHA renders the graph of one fixed-seed generation as edge-list
// text and hashes it.
func edgeListSHA(t *testing.T, gen Generator, s *Seed, size int64) string {
	t.Helper()
	g, err := gen.Generate(s, size)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(g.AppendEdgeList(nil))
	return hex.EncodeToString(sum[:])
}

// goldenClusters is the execution matrix every golden digest must hold on:
// cluster shapes, partition counts, parallelism and a fault plan with
// retries. None of them is an input to the bytes.
var goldenClusters = []struct {
	name string
	cfg  cluster.Config
}{
	{"1x1", cluster.Config{}},
	{"1x2", cluster.Config{CoresPerNode: 2}},
	{"2x4", cluster.Config{Nodes: 2, CoresPerNode: 4}},
	{"4x4", cluster.Config{Nodes: 4, CoresPerNode: 4}},
	{"partitions=1", cluster.Config{DefaultPartitions: 1}},
	{"partitions=3", cluster.Config{Nodes: 2, CoresPerNode: 4, DefaultPartitions: 3}},
	{"partitions=8", cluster.Config{DefaultPartitions: 8}},
	{"partitions=64", cluster.Config{DefaultPartitions: 64}},
	{"par=1", cluster.Config{Nodes: 4, CoresPerNode: 4, MaxParallel: 1}},
	{"par=16", cluster.Config{Nodes: 4, CoresPerNode: 4, MaxParallel: 16}},
	{"faults", cluster.Config{Nodes: 2, CoresPerNode: 4, MaxParallel: 4,
		Faults: cluster.NewFaultPlan(7, 0.2), MaxTaskRetries: 8}},
}

// TestGoldenGeneratorDigests locks the byte-exact output of both generators
// at a fixed seed: for each generator variant the edge-list SHA-256 must be
// one digest across every cell of goldenClusters (the bytes are a function
// of the spec alone) and must match the digest recorded under testdata/
// (cross-version drift). The size spans many RNG blocks, so the cells cut
// every drawing stage into different tasks.
func TestGoldenGeneratorDigests(t *testing.T) {
	s := traceSeed(t, 25, 400, 42)
	cases := []struct {
		name string
		gen  func(c *cluster.Cluster) Generator
	}{
		{"pgpba", func(c *cluster.Cluster) Generator {
			return &PGPBA{Fraction: 0.3, Seed: 42, Cluster: c}
		}},
		{"pgsk", func(c *cluster.Cluster) Generator {
			return &PGSK{Seed: 42, Cluster: c}
		}},
		{"pgpba_fraction2", func(c *cluster.Cluster) Generator {
			return &PGPBA{Fraction: 2, Seed: 42, Cluster: c}
		}},
		{"pgsk_skip", func(c *cluster.Cluster) Generator {
			return &PGSK{Seed: 42, Cluster: c, SkipProperties: true}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var want string
			for _, cell := range goldenClusters {
				got := edgeListSHA(t, tc.gen(cluster.MustNew(cell.cfg)), s, 8000)
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("fixed-seed output depends on the cluster:\n  %s: %s\n  %s: %s",
						goldenClusters[0].name, want, cell.name, got)
				}
			}
			path := filepath.Join("testdata", "golden_"+tc.name+".sha256")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(want+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden digest (run with -update to create): %v", err)
			}
			if w := strings.TrimSpace(string(golden)); want != w {
				t.Fatalf("fixed-seed %s output drifted from golden digest:\n  got  %s\n  want %s\nIf the change is intended, regenerate with -update.",
					tc.name, want, w)
			}
		})
	}
}
