package csb

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"
)

func facadeSeed(t testing.TB) *Seed {
	t.Helper()
	seed, err := BuildSyntheticSeed(50, 800, 42)
	if err != nil {
		t.Fatal(err)
	}
	return seed
}

func TestBuildSyntheticSeed(t *testing.T) {
	seed := facadeSeed(t)
	if seed.Graph.NumVertices() != 50 {
		t.Fatalf("vertices = %d", seed.Graph.NumVertices())
	}
	if seed.Graph.NumEdges() < 700 {
		t.Fatalf("edges = %d", seed.Graph.NumEdges())
	}
	if seed.InDegree == nil || seed.OutDegree == nil || seed.Props == nil {
		t.Fatal("analysis incomplete")
	}
}

func TestPCAPRoundTripThroughFacade(t *testing.T) {
	pkts, err := SynthesizeTrace(DefaultTraceConfig(10, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTracePCAP(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	seed, err := BuildSeedFromPCAP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if seed.Graph.NumVertices() != 10 {
		t.Fatalf("vertices = %d", seed.Graph.NumVertices())
	}
}

func TestFlowsCSVRoundTripThroughFacade(t *testing.T) {
	pkts, err := SynthesizeTrace(DefaultTraceConfig(10, 50, 2))
	if err != nil {
		t.Fatal(err)
	}
	flows := AssembleFlows(pkts)
	var buf bytes.Buffer
	if err := WriteFlowsCSV(&buf, flows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlowsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(flows) {
		t.Fatalf("round trip: %d vs %d flows", len(got), len(flows))
	}
}

func TestGraphIOThroughFacade(t *testing.T) {
	seed := facadeSeed(t)
	var buf bytes.Buffer
	if err := seed.Graph.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != seed.Graph.NumEdges() {
		t.Fatal("graph IO lost edges")
	}
}

func TestGenerateAndScoreThroughFacade(t *testing.T) {
	seed := facadeSeed(t)
	for _, gen := range []Generator{
		&PGPBA{Fraction: 0.3, Seed: 7},
		&PGSK{Seed: 7},
	} {
		g, err := gen.Generate(seed, 10000)
		if err != nil {
			t.Fatalf("%s: %v", gen.Name(), err)
		}
		dv, err := DegreeVeracity(seed.Graph, g)
		if err != nil {
			t.Fatal(err)
		}
		pv, err := PageRankVeracity(seed.Graph, g)
		if err != nil {
			t.Fatal(err)
		}
		if dv <= 0 || dv > 0.01 || pv <= 0 || pv > 0.01 {
			t.Fatalf("%s scores out of range: degree %g pagerank %g", gen.Name(), dv, pv)
		}
	}
}

func TestPageRanksThroughFacade(t *testing.T) {
	seed := facadeSeed(t)
	pr, err := PageRanks(seed.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range pr {
		sum += r
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("PageRanks sum = %g", sum)
	}
}

func TestDetectionThroughFacade(t *testing.T) {
	seed := facadeSeed(t)
	s := NewScenario(FlowsOf(seed.Graph))
	rng := rand.New(rand.NewPCG(3, 3))
	s.InjectHostScan(rng, 0xbad00001, seed.Graph.Addr(0), 1500, 0)
	alerts := DetectFlows(s.Flows, DefaultThresholds())
	found := false
	for _, a := range alerts {
		if a.Type == AttackHostScan {
			found = true
		}
	}
	if !found {
		t.Fatalf("host scan not detected via facade: %v", alerts)
	}
	out := s.Score(alerts)
	if out.Recall() < 1 {
		t.Fatalf("recall = %g", out.Recall())
	}
}

func TestTuneThresholdsThroughFacade(t *testing.T) {
	seed := facadeSeed(t)
	s := NewScenario(FlowsOf(seed.Graph))
	rng := rand.New(rand.NewPCG(4, 4))
	s.InjectSYNFlood(rng, seed.Graph.Addr(1), 80, 2500, 0)
	base := DefaultThresholds()
	tuned, err := TuneThresholds(s, base, 5)
	if err != nil {
		t.Fatal(err)
	}
	outTuned := s.Score(DetectFlows(s.Flows, tuned))
	outBase := s.Score(DetectFlows(s.Flows, base))
	if outTuned.F1() < outBase.F1() {
		t.Fatalf("tuning regressed: %g -> %g", outBase.F1(), outTuned.F1())
	}
}

func TestClusterThroughFacade(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 4, CoresPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	seed := facadeSeed(t)
	gen := &PGPBA{Fraction: 0.5, Seed: 9, Cluster: c}
	if _, err := gen.Generate(seed, 5000); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Tasks == 0 || m.Makespan <= 0 {
		t.Fatalf("metrics empty: %+v", m)
	}
	if LocalCluster(0) == nil {
		t.Fatal("LocalCluster nil")
	}
}

func TestGraphAlgoThroughFacade(t *testing.T) {
	seed := facadeSeed(t)
	cc := ConnectedComponents(seed.Graph)
	if cc.Count < 1 || cc.GiantFraction() <= 0 {
		t.Fatalf("components: %+v", cc)
	}
	bc := Betweenness(seed.Graph, 16, 1)
	if int64(len(bc)) != seed.Graph.NumVertices() {
		t.Fatalf("betweenness length %d", len(bc))
	}
	var positive bool
	for _, b := range bc {
		if b < 0 {
			t.Fatal("negative betweenness")
		}
		if b > 0 {
			positive = true
		}
	}
	if !positive {
		t.Fatal("all-zero betweenness on a trace graph")
	}
}

func TestStreamDetectorThroughFacade(t *testing.T) {
	seed := facadeSeed(t)
	flows := FlowsOf(seed.Graph)
	var alerts []Alert
	det := NewStreamDetector(DefaultThresholds(), 0, func(a Alert) { alerts = append(alerts, a) })
	for _, f := range flows {
		det.Add(f)
	}
	det.Flush()
	// Clean traffic through the default thresholds: no promises about zero
	// alerts, but the pipeline must run to completion.
	if det.Pending() != 0 {
		t.Fatal("flows left pending after Flush")
	}
}

func TestBaselineGeneratorsThroughFacade(t *testing.T) {
	er, err := ErdosRenyi(50, 200, 1)
	if err != nil || er.NumEdges() != 200 {
		t.Fatalf("ER: %v", err)
	}
	ws, err := WattsStrogatz(50, 2, 0.2, 1)
	if err != nil || ws.NumEdges() != 100 {
		t.Fatalf("WS: %v", err)
	}
	cl, err := ChungLu([]float64{5, 5, 5, 5}, []float64{5, 5, 5, 5}, 1)
	if err != nil || cl.NumEdges() != 20 {
		t.Fatalf("CL: %v", err)
	}
	sbm, err := SBM([]int64{10, 10}, [][]float64{{0.5, 0.05}, {0.05, 0.5}}, 1)
	if err != nil || sbm.NumEdges() == 0 {
		t.Fatalf("SBM: %v", err)
	}
	rm, err := RMAT(6, 100, 0.57, 0.19, 0.19, 0.05, 1)
	if err != nil || rm.NumEdges() != 100 {
		t.Fatalf("RMAT: %v", err)
	}
}

func TestDetectDirectMatchesDetect(t *testing.T) {
	seed := facadeSeed(t)
	g, err := (&PGPBA{Fraction: 0.5, Seed: 30}).Generate(seed, 20000)
	if err != nil {
		t.Fatal(err)
	}
	th := DefaultThresholds()
	a := Detect(g, th)
	b := DetectDirect(g, th)
	if len(a) != len(b) {
		t.Fatalf("alert counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Type != b[i].Type || a[i].IP != b[i].IP {
			t.Fatalf("alert %d differs", i)
		}
	}
}

func TestBTERAndClusteringThroughFacade(t *testing.T) {
	degrees := make([]int64, 200)
	for i := range degrees {
		degrees[i] = int64(50/(i+1)) + 2
	}
	g, err := BTER(degrees, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	local, global := ClusteringCoefficients(g)
	if local <= 0 || global <= 0 {
		t.Fatalf("BTER clustering degenerate: %g/%g", local, global)
	}
}

// Determinism matrix: at a fixed seed and fixed cluster topology, both
// generators must produce byte-identical graphs no matter how many real
// goroutines execute the stages. Partitioning depends only on
// DefaultPartitions, so MaxParallel changes scheduling but never data
// placement, combine order, or output order (the PR's shuffle-ordering
// guarantee, end to end through the facade).
func TestGeneratorDeterminismAcrossParallelism(t *testing.T) {
	seed := facadeSeed(t)
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range []struct {
		name string
		gen  func(c *Cluster) Generator
	}{
		{"PGPBA", func(c *Cluster) Generator { return &PGPBA{Fraction: 0.3, Seed: 11, Cluster: c} }},
		{"PGSK", func(c *Cluster) Generator { return &PGSK{Seed: 11, Cluster: c} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for _, mp := range parallelisms {
				c, err := NewCluster(ClusterConfig{
					Nodes: 2, CoresPerNode: 2, DefaultPartitions: 8, MaxParallel: mp,
				})
				if err != nil {
					t.Fatal(err)
				}
				g, err := tc.gen(c).Generate(seed, 8000)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := g.Write(&buf); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("MaxParallel=%d output differs from MaxParallel=%d (%d vs %d bytes)",
						mp, parallelisms[0], buf.Len(), len(want))
				}
			}
		})
	}
}

// The same matrix across repeated runs at one parallelism level: fixed seed
// in, byte-identical graph out, every time.
func TestGeneratorDeterminismAcrossRuns(t *testing.T) {
	seed := facadeSeed(t)
	for _, tc := range []struct {
		name string
		gen  func() Generator
	}{
		{"PGPBA", func() Generator { return &PGPBA{Fraction: 0.3, Seed: 13, Cluster: LocalCluster(4)} }},
		{"PGSK", func() Generator { return &PGSK{Seed: 13, Cluster: LocalCluster(4)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for run := 0; run < 3; run++ {
				g, err := tc.gen().Generate(seed, 8000)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := g.Write(&buf); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("run %d output differs (%d vs %d bytes)", run, buf.Len(), len(want))
				}
			}
		})
	}
}
