package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"testing"

	"csb/internal/cluster"
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
	// Both distributions are P[1] = P[2] = 0.5: support {1, 2} and mean 1.5
	// pin the two weights.
	for name, d := range map[string]*stats.Discrete{"out": s.OutDegree, "in": s.InDegree} {
		if got := d.Support(); !slices.Equal(got, []int64{1, 2}) {
			t.Errorf("%s-degree support = %v, want [1 2]", name, got)
		}
		if m := d.Mean(); math.Abs(m-1.5) > 1e-12 {
			t.Errorf("%s-degree mean = %g, want 1.5", name, m)
		}
	}
}

// fitProperties fits the attribute model of a row-structured edge slice.
func fitProperties(edges []graph.Edge) (*PropertyModel, error) {
	var b graph.EdgeBatch
	for _, e := range edges {
		b.Append(e)
	}
	return FitPropertiesBatch(&b)
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
	// dynamic range; the conditional model must preserve the coupling.
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
		rho, err := stats.Pearson(in, out)
		if err != nil {
			t.Fatal(err)
		}
		return rho
	}
	if cond := corr(m.Sample); cond < 0.9 {
		t.Errorf("conditional correlation = %g, want > 0.9", cond)
	}
}

func TestSampleAttributesComeFromSeedSupport(t *testing.T) {
	s := traceSeed(t, 20, 300, 5)
	// Collect the seed's observed attribute values.
	durations := map[int64]bool{}
	for i := range s.Graph.Cols().Len() {
		durations[s.Graph.Cols().Duration(i)] = true
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

// BenchmarkAblationPropertySynthesis times the property pass of a 100k-edge
// PGPBA graph in isolation — the Figure 10 overhead source: one property
// draw written into the output columns per edge.
func BenchmarkAblationPropertySynthesis(b *testing.B) {
	seed := traceSeed(b, 100, 2000, 20171010)
	g, err := (&PGPBA{Fraction: 0.5, Seed: 1, SkipProperties: true}).Generate(seed, 100000)
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

// TestSeedIndependentOfPacketTieOrder checks that the order of packets with
// equal timestamps cannot reach the seed graph: its CSBG bytes are the same
// from Synthesize's order (ties in generation order), from the comparison
// sort Synthesize used before (a copy of it here, over the packets in a
// seeded random order, which leaves ties in an arbitrary order), and from
// Synthesize's order with every run of ties reversed.
func TestSeedIndependentOfPacketTieOrder(t *testing.T) {
	seedBytes := func(pkts []pcap.PacketInfo) []byte {
		var buf bytes.Buffer
		if err := netflow.BuildGraph(netflow.Assemble(pkts, 0)).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	runs, moved := 0, 0
	for seed := uint64(1); seed <= 16; seed++ {
		pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(100, 6000, seed))
		if err != nil {
			t.Fatal(err)
		}
		want := seedBytes(pkts)

		old := slices.Clone(pkts)
		rng := rand.New(rand.NewPCG(seed, 1))
		rng.Shuffle(len(old), func(i, j int) { old[i], old[j] = old[j], old[i] })
		sort.Slice(old, func(i, j int) bool { return old[i].TsMicros < old[j].TsMicros })

		reversed := slices.Clone(pkts)
		for lo := 0; lo < len(reversed); {
			hi := lo + 1
			for hi < len(reversed) && reversed[hi].TsMicros == reversed[lo].TsMicros {
				hi++
			}
			if hi-lo > 1 {
				runs++
				slices.Reverse(reversed[lo:hi])
			}
			lo = hi
		}
		for _, order := range [][]pcap.PacketInfo{old, reversed} {
			if !slices.Equal(order, pkts) {
				moved++
			}
			if !bytes.Equal(seedBytes(order), want) {
				t.Fatalf("seed %d: the seed graph depends on the order of tied packets", seed)
			}
		}
	}
	if runs < 100 || moved == 0 {
		t.Fatalf("%d tie runs, %d reordered traces: the check covered too little", runs, moved)
	}
	t.Logf("%d tie runs", runs)
}

// TestGeneratorsLeaveSeedUnchanged generates with both generators, with and
// without properties, serially and with PGSK's fit beside its property
// draws, all from one seed: generation only reads its seed, so one analyzed
// seed can feed a build and then serve as that build's reference.
func TestGeneratorsLeaveSeedUnchanged(t *testing.T) {
	s := traceSeed(t, 25, 400, 42)
	fingerprint := func() []byte {
		var b bytes.Buffer
		if err := s.Graph.Write(&b); err != nil {
			t.Fatal(err)
		}
		dists := []*stats.Discrete{s.InDegree, s.OutDegree, s.Props.inBytes}
		models := []*attrModel{s.Props.all}
		ids := make([]int, 0, len(s.Props.buckets))
		for id := range s.Props.buckets {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			models = append(models, s.Props.buckets[id])
		}
		for _, m := range models {
			dists = append(dists, m.duration, m.outBytes, m.outPkts, m.inPkts, m.srcPort, m.dstPort, m.protoState)
		}
		for _, d := range dists {
			rng := stats.NewRNG(3, 5)
			for i := 0; i < 64; i++ {
				b.WriteString(strconv.FormatInt(d.Sample(rng), 10) + " ")
			}
		}
		return b.Bytes()
	}
	want := fingerprint()
	for _, tc := range []struct {
		name string
		gen  Generator
	}{
		{"pgpba", &PGPBA{Fraction: 0.3, Seed: 7}},
		{"pgpba-skip", &PGPBA{Fraction: 0.3, Seed: 7, SkipProperties: true}},
		{"pgpba-parallel", &PGPBA{Fraction: 2, Seed: 7, Cluster: cluster.Local(2)}},
		{"pgsk", &PGSK{Seed: 7}},
		{"pgsk-skip", &PGSK{Seed: 7, SkipProperties: true}},
		{"pgsk-fit-beside-draws", &PGSK{Seed: 7, Cluster: cluster.Local(2)}},
	} {
		if _, err := tc.gen.Generate(s, 6000); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fingerprint(); !bytes.Equal(got, want) {
			t.Fatalf("%s changed its seed's graph or distributions", tc.name)
		}
	}
}
