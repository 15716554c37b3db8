package ids

import (
	"testing"

	"csb/internal/core"
	"csb/internal/netflow"
)

// BenchmarkAggregationFlowRecords times the detector's Table I aggregation
// over a generated graph's flows, the path Section IV's property-graph
// claim is measured against (EXPERIMENTS.md "Extension — property-graph
// aggregation").
func BenchmarkAggregationFlowRecords(b *testing.B) {
	seed, err := core.SyntheticSeed(100, 2000, 20171010)
	if err != nil {
		b.Fatal(err)
	}
	g, err := (&core.PGPBA{Fraction: 0.5, Seed: 6}).Generate(seed, 200000)
	if err != nil {
		b.Fatal(err)
	}
	flows := netflow.FlowsFromGraph(g)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, s := AggregatePatterns(flows)
		if len(d) == 0 || len(s) == 0 {
			b.Fatal("no patterns")
		}
	}
}
