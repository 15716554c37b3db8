package kronecker

import (
	"testing"

	"csb/internal/cluster"
)

// The ablation DESIGN.md records: sequential SKG (one map) against the
// Map-Reduce distinct rounds, 100k edges at Kronecker power 16.

func BenchmarkAblationSKGSequential(b *testing.B) {
	init := DefaultInitiator()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(init, 16, 100000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSKGParallel(b *testing.B) {
	init := DefaultInitiator()
	c := cluster.Local(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateParallel(c, init, 16, 100000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
