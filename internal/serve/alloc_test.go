package serve

import (
	"context"
	"runtime"
	"testing"

	"csb/internal/cluster"
)

// TestBuildArtifactAllocCeiling bounds what one 500k-edge csbg job allocates.
// The floor is 116 B/edge (54 B of output columns + the 62 B record); the
// generators add about 35 B/edge of 8-byte endpoint rows on top. A generator
// or encoder that goes back to moving 64-byte edge rows between stages lands
// at 600-700 B/edge.
func TestBuildArtifactAllocCeiling(t *testing.T) {
	const edges, ceiling = 500_000, 250
	for _, gen := range []string{GenPGPBA, GenPGSK} {
		spec := Spec{Generator: gen, Seed: 7, Edges: edges, Format: FormatCSBG}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		c := cluster.MustNew(cluster.Config{Nodes: 1, CoresPerNode: 2})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		data, err := BuildArtifact(context.Background(), spec, c)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perEdge := float64(after.TotalAlloc-before.TotalAlloc) / edges
		t.Logf("%s: %d-byte artifact, %.0f B allocated per edge", gen, len(data), perEdge)
		if perEdge > ceiling {
			t.Errorf("%s: %.0f B allocated per edge, ceiling %d", gen, perEdge, ceiling)
		}
	}
}
