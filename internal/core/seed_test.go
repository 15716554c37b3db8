package core

import (
	"math"
	"testing"

	"csb/internal/graph"
	"csb/internal/netflow"
	"csb/internal/pcap"
	"csb/internal/stats"
)

// traceSeed builds a seed through the full Figure 1 pipeline: synthetic
// PCAP -> flow assembly -> property graph -> analysis.
func traceSeed(t testing.TB, hosts, sessions int, seed uint64) *Seed {
	t.Helper()
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(hosts, sessions, seed))
	if err != nil {
		t.Fatal(err)
	}
	g := netflow.BuildGraph(netflow.Assemble(pkts, 0))
	s, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAnalyzeEmptyGraph(t *testing.T) {
	if _, err := Analyze(graph.New(3)); err == nil {
		t.Fatal("edgeless graph accepted")
	}
}

func TestAnalyzeDegreeDistributions(t *testing.T) {
	g := graph.New(4)
	// out-degrees: v0=2, v1=1; in-degrees: v2=2, v3=1.
	g.AddEdge(graph.Edge{Src: 0, Dst: 2, Props: graph.EdgeProps{Protocol: graph.ProtoTCP, InBytes: 10}})
	g.AddEdge(graph.Edge{Src: 0, Dst: 3, Props: graph.EdgeProps{Protocol: graph.ProtoTCP, InBytes: 20}})
	g.AddEdge(graph.Edge{Src: 1, Dst: 2, Props: graph.EdgeProps{Protocol: graph.ProtoTCP, InBytes: 30}})
	s, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if p := s.OutDegree.Prob(2); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P[out=2] = %g, want 0.5", p)
	}
	if p := s.OutDegree.Prob(1); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P[out=1] = %g, want 0.5", p)
	}
	if p := s.InDegree.Prob(2); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P[in=2] = %g, want 0.5", p)
	}
}

// fitProperties fits the attribute model of a row-structured edge slice.
func fitProperties(edges []graph.Edge) (*PropertyModel, error) {
	b := graph.GetBatch(len(edges))
	defer graph.PutBatch(b)
	b.AppendEdges(edges)
	return FitPropertiesBatch(b)
}

func TestFitPropertiesEmpty(t *testing.T) {
	if _, err := fitProperties(nil); err == nil {
		t.Fatal("empty edge list accepted")
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int{0: 0, -5: 0, 1: 1, 2: 2, 3: 2, 4: 3, 1024: 11}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestProtoStateCodeRoundTrip(t *testing.T) {
	for _, p := range []graph.Protocol{graph.ProtoTCP, graph.ProtoUDP, graph.ProtoICMP} {
		for _, s := range []graph.TCPState{graph.StateNone, graph.StateS0, graph.StateSF, graph.StateOTH} {
			gp, gs := codeProtoState(protoStateCode(p, s))
			if gp != p || gs != s {
				t.Fatalf("round trip (%v,%v) -> (%v,%v)", p, s, gp, gs)
			}
		}
	}
}

func TestSampleNeverInventsProtoStatePairs(t *testing.T) {
	// Seed holds TCP/SF and UDP/None only; samples must never mix them.
	edges := []graph.Edge{}
	for i := 0; i < 50; i++ {
		edges = append(edges,
			graph.Edge{Props: graph.EdgeProps{Protocol: graph.ProtoTCP, State: graph.StateSF, InBytes: int64(i + 1)}},
			graph.Edge{Props: graph.EdgeProps{Protocol: graph.ProtoUDP, State: graph.StateNone, InBytes: int64(i + 1)}},
		)
	}
	m, err := fitProperties(edges)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1, 1)
	for i := 0; i < 2000; i++ {
		p := m.Sample(rng)
		switch p.Protocol {
		case graph.ProtoTCP:
			if p.State != graph.StateSF {
				t.Fatalf("invented TCP state %v", p.State)
			}
		case graph.ProtoUDP:
			if p.State != graph.StateNone {
				t.Fatalf("invented UDP state %v", p.State)
			}
		default:
			t.Fatalf("invented protocol %v", p.Protocol)
		}
	}
}

func TestConditionalSamplingPreservesCorrelation(t *testing.T) {
	// Build edges with OUT_BYTES strongly tied to IN_BYTES across a wide
	// dynamic range; the conditional model must preserve the coupling,
	// the independent ablation must destroy it.
	rng := stats.NewRNG(2, 2)
	var edges []graph.Edge
	for i := 0; i < 4000; i++ {
		ib := int64(1) << uint(rng.IntN(16)) // 1 .. 32768
		edges = append(edges, graph.Edge{Props: graph.EdgeProps{
			Protocol: graph.ProtoTCP, State: graph.StateSF,
			InBytes: ib, OutBytes: ib * 2, OutPkts: ib / 4, InPkts: ib / 2,
			Duration: ib * 3,
		}})
	}
	m, err := fitProperties(edges)
	if err != nil {
		t.Fatal(err)
	}
	corr := func(sample func(*stats.RNG) graph.EdgeProps) float64 {
		r := stats.NewRNG(3, 3)
		var in, out []float64
		for i := 0; i < 4000; i++ {
			p := sample(r)
			in = append(in, math.Log1p(float64(p.InBytes)))
			out = append(out, math.Log1p(float64(p.OutBytes)))
		}
		return stats.PearsonCorrelation(in, out)
	}
	cond := corr(m.Sample)
	ind := corr(m.SampleIndependent)
	if cond < 0.9 {
		t.Errorf("conditional correlation = %g, want > 0.9", cond)
	}
	if ind > 0.3 {
		t.Errorf("independent correlation = %g, want ~0", ind)
	}
	if cond <= ind {
		t.Errorf("conditioning did not help: cond %g vs ind %g", cond, ind)
	}
}

func TestSampleAttributesComeFromSeedSupport(t *testing.T) {
	s := traceSeed(t, 20, 300, 5)
	// Collect the seed's observed attribute values.
	durations := map[int64]bool{}
	for _, e := range s.Graph.EdgeSlice() {
		durations[e.Props.Duration] = true
	}
	rng := stats.NewRNG(4, 4)
	for i := 0; i < 500; i++ {
		p := s.Props.Sample(rng)
		if !durations[p.Duration] {
			t.Fatalf("sampled duration %d never observed in seed", p.Duration)
		}
	}
}

func TestAnalyzeTraceSeedShape(t *testing.T) {
	s := traceSeed(t, 40, 800, 6)
	if s.Graph.NumVertices() != 40 {
		t.Errorf("vertices = %d", s.Graph.NumVertices())
	}
	if s.InDegree.Min() < 1 || s.OutDegree.Min() < 1 {
		t.Error("degree distributions include zero")
	}
	if s.InDegree.Mean() <= 0 || s.OutDegree.Mean() <= 0 {
		t.Error("degenerate degree means")
	}
}

// BenchmarkPropertyModelSample times the property-synthesis kernel, one
// conditional attribute draw per edge (eight alias draws), on the seed the
// generator benchmarks fit: 100 hosts, 2000 sessions.
func BenchmarkPropertyModelSample(b *testing.B) {
	m := traceSeed(b, 100, 2000, 20171010).Props
	rng := stats.NewRNG(1, 2)
	b.ReportAllocs()
	for b.Loop() {
		m.Sample(rng)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/edge")
}
