// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices recorded
// in DESIGN.md. Run everything with:
//
//	go test -bench=. -benchmem
//
// Each figure bench executes its experiment at a laptop-scale configuration
// and reports domain metrics (edges/s, veracity scores) via b.ReportMetric;
// cmd/csbbench prints the full tables/series for larger sweeps.
package bench_test

import (
	"sync"
	"testing"

	"csb/internal/bench"
	"csb/internal/cluster"
	"csb/internal/core"
	"csb/internal/genmodels"
	"csb/internal/graphalgo"
	"csb/internal/ids"
	"csb/internal/kronecker"
	"csb/internal/kronfit"
	"csb/internal/netflow"
	"csb/internal/pagerank"
	"csb/internal/pcap"
)

var (
	benchSeedOnce sync.Once
	benchSeed     *core.Seed
)

// seedForBench builds (once) the shared 100-host / 2000-flow seed.
func seedForBench(b *testing.B) *core.Seed {
	b.Helper()
	benchSeedOnce.Do(func() {
		pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(100, 2000, bench.DefaultSeed))
		if err != nil {
			panic(err)
		}
		s, err := core.Analyze(netflow.BuildGraph(netflow.Assemble(pkts, 0)))
		if err != nil {
			panic(err)
		}
		benchSeed = s
	})
	return benchSeed
}

// --- Figure 1: seed construction pipeline -----------------------------------

func BenchmarkFig1SeedPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(50, 1000, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Analyze(netflow.BuildGraph(netflow.Assemble(pkts, 0))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: degree distribution comparison -------------------------------

func BenchmarkFig5DegreeDistributions(b *testing.B) {
	seed := seedForBench(b)
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig5(seed, 50000, bench.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Seed.Xs) == 0 {
			b.Fatal("empty series")
		}
	}
}

// --- Figure 8: single-node throughput ---------------------------------------

func BenchmarkFig8SingleNodeThroughput(b *testing.B) {
	seed := seedForBench(b)
	var tp float64
	for i := 0; i < b.N; i++ {
		pts, err := bench.SingleNodeThroughput(seed, 50000, []int{2}, bench.DefaultSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
		tp = pts[0].Throughput
	}
	b.ReportMetric(tp, "edges/s")
}

// --- Figures 9, 10, 11: size sweeps on the virtual cluster -------------------

func BenchmarkFig9Fig10Fig11SizeSweep(b *testing.B) {
	seed := seedForBench(b)
	var pt bench.SizePoint
	for i := 0; i < b.N; i++ {
		pts, err := bench.SizeSweep(seed, []int64{50000},
			cluster.Config{Nodes: 8, CoresPerNode: 4}, bench.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		pt = pts[0]
	}
	b.ReportMetric(pt.Throughput, "edges/virt-s")
	b.ReportMetric(100*pt.PropsOverhead, "props-overhead-%")
	b.ReportMetric(float64(pt.BytesPerNode), "bytes/node")
}

// --- Figure 12: strong scaling ----------------------------------------------

func BenchmarkFig12StrongScaling(b *testing.B) {
	seed := seedForBench(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		pts, err := bench.StrongScaling(seed, 100000, []int{2, 8}, 4, bench.DefaultSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
		speedup = pts[1].Speedup // PGPBA at 8 nodes vs 2
	}
	b.ReportMetric(speedup, "speedup-4x-nodes")
}

// --- Table I: anomaly detection ----------------------------------------------

func BenchmarkTable1Detection(b *testing.B) {
	seed := seedForBench(b)
	var f1 float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Table1(seed, bench.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		f1 = res.TunedOutcome.F1()
	}
	b.ReportMetric(f1, "tuned-F1")
}

// --- Generator micro-benchmarks ----------------------------------------------

func BenchmarkPGPBAGenerate100k(b *testing.B) {
	seed := seedForBench(b)
	b.ReportAllocs()
	var edges int64
	for i := 0; i < b.N; i++ {
		gen := &core.PGPBA{Fraction: 0.5, Seed: uint64(i)}
		g, err := gen.Generate(seed, 100000)
		if err != nil {
			b.Fatal(err)
		}
		edges = g.NumEdges()
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds()*float64(b.N), "edges/s")
}

func BenchmarkPGSKGenerate100k(b *testing.B) {
	seed := seedForBench(b)
	pgsk := &core.PGSK{Seed: 1}
	init, err := pgsk.FitSeed(seed)
	if err != nil {
		b.Fatal(err)
	}
	pgsk.Initiator = &init
	b.ResetTimer()
	b.ReportAllocs()
	var edges int64
	for i := 0; i < b.N; i++ {
		pgsk.Seed = uint64(i)
		g, err := pgsk.Generate(seed, 100000)
		if err != nil {
			b.Fatal(err)
		}
		edges = g.NumEdges()
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds()*float64(b.N), "edges/s")
}

func BenchmarkKronFit(b *testing.B) {
	seed := seedForBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := kronfit.FitForGeneration(seed.Graph, kronfit.Config{Iterations: 40, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRank(b *testing.B) {
	seed := seedForBench(b)
	gen := &core.PGPBA{Fraction: 0.5, Seed: 1}
	g, err := gen.Generate(seed, 200000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pagerank.Compute(g, pagerank.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowAssembler(b *testing.B) {
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(100, 5000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		flows := netflow.Assemble(pkts, 0)
		if len(flows) == 0 {
			b.Fatal("no flows")
		}
	}
	b.ReportMetric(float64(len(pkts)), "packets")
}

// --- Ablations (DESIGN.md) ----------------------------------------------------

// Conditional p(a|IN_BYTES) sampling vs independent attribute sampling.
func BenchmarkAblationConditionalProps(b *testing.B) {
	seed := seedForBench(b)
	for i := 0; i < b.N; i++ {
		gen := &core.PGPBA{Fraction: 0.5, Seed: uint64(i)}
		if _, err := gen.Generate(seed, 50000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIndependentProps(b *testing.B) {
	seed := seedForBench(b)
	for i := 0; i < b.N; i++ {
		gen := &core.PGPBA{Fraction: 0.5, Seed: uint64(i), IndependentProps: true}
		if _, err := gen.Generate(seed, 50000); err != nil {
			b.Fatal(err)
		}
	}
}

// Sequential SKG (single map) vs the Map-Reduce distinct rounds.
func BenchmarkAblationSKGSequential(b *testing.B) {
	init := kronecker.DefaultInitiator()
	for i := 0; i < b.N; i++ {
		if _, err := kronecker.Generate(init, 16, 100000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSKGParallel(b *testing.B) {
	init := kronecker.DefaultInitiator()
	c := cluster.Local(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kronecker.GenerateParallel(c, init, 16, 100000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Property synthesis cost in isolation (the Figure 10 overhead source).
func BenchmarkAblationPropertySynthesis(b *testing.B) {
	seed := seedForBench(b)
	gen := &core.PGPBA{Fraction: 0.5, Seed: 1, SkipProperties: true}
	g, err := gen.Generate(seed, 100000)
	if err != nil {
		b.Fatal(err)
	}
	cols := g.Cols()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := cluster.DeriveRNG(uint64(i), 0)
		for j := 0; j < cols.Len(); j++ {
			cols.SetProps(j, seed.Props.Sample(rng))
		}
	}
	b.ReportMetric(float64(cols.Len()), "edges")
}

// --- Extension benches ---------------------------------------------------------

// The Section II baseline comparison (csbbench -exp baselines).
func BenchmarkBaselineComparison(b *testing.B) {
	seed := seedForBench(b)
	for i := 0; i < b.N; i++ {
		pts, err := bench.Baselines(seed, 50000, bench.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 6 {
			b.Fatalf("points = %d", len(pts))
		}
	}
}

// Weakly connected components over a 200k-edge synthetic graph.
func BenchmarkConnectedComponents(b *testing.B) {
	seed := seedForBench(b)
	g, err := (&core.PGPBA{Fraction: 0.5, Seed: 1}).Generate(seed, 200000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := graphalgo.WeakComponents(g); c.Count < 1 {
			b.Fatal("no components")
		}
	}
}

// Sampled Brandes betweenness (64 sources) over a 50k-edge graph.
func BenchmarkBetweennessSampled(b *testing.B) {
	seed := seedForBench(b)
	g, err := (&core.PGPBA{Fraction: 0.5, Seed: 2}).Generate(seed, 50000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc := graphalgo.ApproxBetweenness(g, graphalgo.BetweennessOptions{Samples: 64, Seed: uint64(i)})
		if len(bc) == 0 {
			b.Fatal("empty result")
		}
	}
}

// Streaming detection throughput over a labeled hour of traffic.
func BenchmarkStreamDetector(b *testing.B) {
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(60, 3000, 3))
	if err != nil {
		b.Fatal(err)
	}
	flows := netflow.Assemble(pkts, 0)
	th := ids.TrainThresholds(flows, 0.99, 2)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		s := ids.NewStreamDetector(th, 60*1e6, func(ids.Alert) { n++ })
		for _, f := range flows {
			s.Add(f)
		}
		s.Flush()
	}
	b.ReportMetric(float64(len(flows)), "flows")
}

// Classical baseline generator micro-benches.
func BenchmarkGenErdosRenyi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := genmodels.ErdosRenyi(10000, 100000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := genmodels.RMAT(14, 100000, 0.57, 0.19, 0.19, 0.05, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// PGPBA attachment-style ablation: single-destination (Figure 2) vs
// per-edge re-sampling.
func BenchmarkAblationClumpedAttachment(b *testing.B) {
	seed := seedForBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := (&core.PGPBA{Fraction: 0.5, Seed: uint64(i)}).Generate(seed, 50000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSpreadAttachment(b *testing.B) {
	seed := seedForBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := (&core.PGPBA{Fraction: 0.5, Seed: uint64(i), SpreadAttachment: true}).Generate(seed, 50000); err != nil {
			b.Fatal(err)
		}
	}
}

// The detector's Table I aggregation over a generated graph's flows, the
// path Section IV's property-graph claim is measured against (EXPERIMENTS.md
// "Extension — property-graph aggregation").
func BenchmarkAggregationFlowRecords(b *testing.B) {
	seed := seedForBench(b)
	g, err := (&core.PGPBA{Fraction: 0.5, Seed: 6}).Generate(seed, 200000)
	if err != nil {
		b.Fatal(err)
	}
	flows := netflow.FlowsFromGraph(g)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, s := ids.AggregatePatterns(flows)
		if len(d) == 0 || len(s) == 0 {
			b.Fatal("no patterns")
		}
	}
}

// The paper's Section III-B complexity contrast: deterministic Kronecker is
// O(|V|^2); stochastic is O(|E|).
func BenchmarkAblationDeterministicKronecker(b *testing.B) {
	base := [][]bool{{true, true}, {true, false}}
	for i := 0; i < b.N; i++ {
		if _, err := kronecker.Deterministic(base, 10); err != nil { // 1024^2 cells
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStochasticKronecker(b *testing.B) {
	init := kronecker.DefaultInitiator()
	for i := 0; i < b.N; i++ {
		if _, err := kronecker.Generate(init, 10, 0, uint64(i)); err != nil { // ~1024 edges
			b.Fatal(err)
		}
	}
}
