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

// TestGoldenGeneratorDigests locks the byte-exact output of both generators
// at a fixed seed: for each generator the edge-list SHA-256 must be identical
// across MaxParallel 1 and 16 (scheduling independence, the PR 1 invariant)
// and must match the digest recorded under testdata/ (cross-version drift).
func TestGoldenGeneratorDigests(t *testing.T) {
	s := traceSeed(t, 25, 400, 42)
	cases := []struct {
		name string
		gen  func(c *cluster.Cluster) Generator
		size int64
	}{
		{"pgpba", func(c *cluster.Cluster) Generator {
			return &PGPBA{Fraction: 0.3, Seed: 42, Cluster: c}
		}, 8000},
		{"pgsk", func(c *cluster.Cluster) Generator {
			return &PGSK{Seed: 42, Cluster: c}
		}, 8000},
		// Paths the two digests above never take, recorded on 570dac0.
		{"pgpba_spread", func(c *cluster.Cluster) Generator {
			return &PGPBA{Fraction: 0.3, Seed: 42, Cluster: c, SpreadAttachment: true}
		}, 8000},
		{"pgpba_independent", func(c *cluster.Cluster) Generator {
			return &PGPBA{Fraction: 0.3, Seed: 42, Cluster: c, IndependentProps: true}
		}, 8000},
		{"pgpba_fraction2", func(c *cluster.Cluster) Generator {
			return &PGPBA{Fraction: 2, Seed: 42, Cluster: c}
		}, 8000},
		{"pgsk_skip", func(c *cluster.Cluster) Generator {
			return &PGSK{Seed: 42, Cluster: c, SkipProperties: true}
		}, 8000},
		{"pgsk_independent", func(c *cluster.Cluster) Generator {
			return &PGSK{Seed: 42, Cluster: c, IndependentProps: true}
		}, 8000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			digests := map[int]string{}
			for _, par := range []int{1, 16} {
				c := cluster.MustNew(cluster.Config{
					Nodes: 4, CoresPerNode: 4,
					DefaultPartitions: 8, MaxParallel: par,
				})
				digests[par] = edgeListSHA(t, tc.gen(c), s, tc.size)
			}
			if digests[1] != digests[16] {
				t.Fatalf("fixed-seed output depends on MaxParallel:\n  1:  %s\n  16: %s",
					digests[1], digests[16])
			}
			path := filepath.Join("testdata", "golden_"+tc.name+".sha256")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(digests[1]+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden digest (run with -update to create): %v", err)
			}
			if got := digests[1]; got != strings.TrimSpace(string(want)) {
				t.Fatalf("fixed-seed %s output drifted from golden digest:\n  got  %s\n  want %s\nIf the change is intended, regenerate with -update.",
					tc.name, got, strings.TrimSpace(string(want)))
			}
		})
	}
}
