package pagerank

import (
	"testing"

	"csb/internal/core"
)

// BenchmarkPageRank ranks a 200k-edge PGPBA graph grown from the 100-host,
// 2,000-session seed.
func BenchmarkPageRank(b *testing.B) {
	seed, err := core.SyntheticSeed(100, 2000, 20171010)
	if err != nil {
		b.Fatal(err)
	}
	g, err := (&core.PGPBA{Fraction: 0.5, Seed: 1}).Generate(seed, 200000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(g); err != nil {
			b.Fatal(err)
		}
	}
}
