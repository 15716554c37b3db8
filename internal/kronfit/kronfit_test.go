package kronfit

import (
	"math"
	"testing"

	"csb/internal/graph"
	"csb/internal/kronecker"
)

func TestFitErrors(t *testing.T) {
	if _, err := Fit(graph.New(5), Config{}); err == nil {
		t.Error("edgeless graph accepted")
	}
	g := graph.New(1)
	g.AddEdge(graph.Edge{Src: 0, Dst: 0})
	if _, err := Fit(g, Config{}); err == nil {
		t.Error("single-vertex graph accepted")
	}
}

func TestFitRejectsBadConfig(t *testing.T) {
	g, err := kronecker.Generate(kronecker.DefaultInitiator(), 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	init := func(th00 float64) kronecker.Initiator {
		return kronecker.Initiator{Theta: [4]float64{th00, 0.5, 0.5, 0.1}}
	}
	bad := map[string]Config{
		"negative Iterations":     {Iterations: -1},
		"negative PermSamples":    {PermSamples: -1},
		"negative SwapsPerSample": {SwapsPerSample: -1},
		"MinTheta = 0.5":          {MinTheta: 0.5},
		"MinTheta > 0.5":          {MinTheta: 0.7},
		"negative MinTheta":       {MinTheta: -0.01},
		"NaN MinTheta":            {MinTheta: math.NaN()},
		"negative LearningRate":   {LearningRate: -0.05},
		"NaN LearningRate":        {LearningRate: math.NaN()},
		"+Inf LearningRate":       {LearningRate: math.Inf(1)},
		"-Inf LearningRate":       {LearningRate: math.Inf(-1)},
		"Init entry = 0":          {Init: init(0)},
		"Init entry = 1":          {Init: init(1)},
		"Init entry > 1":          {Init: init(1.5)},
		"negative Init entry":     {Init: init(-0.2)},
		"NaN Init entry":          {Init: init(math.NaN())},
	}
	for name, cfg := range bad {
		cfg.Seed = 1
		if res, err := Fit(g, cfg); err == nil {
			t.Errorf("%s: accepted, fitted %v", name, res.Initiator)
		}
		if _, err := FitForGeneration(g, cfg); err == nil {
			t.Errorf("%s: accepted by FitForGeneration", name)
		}
	}
	// The bounds themselves are open: values just inside them fit.
	good := map[string]Config{
		"zero value":           {},
		"one of everything":    {Iterations: 1, PermSamples: 1, SwapsPerSample: 1},
		"MinTheta below 0.5":   {Iterations: 2, MinTheta: 0.49},
		"Init near the bounds": {Iterations: 2, Init: kronecker.Initiator{Theta: [4]float64{1 - 1e-9, 1e-9, 0.5, 0.5}}},
	}
	for name, cfg := range good {
		if _, err := Fit(g, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int64]int{2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFitImprovesLikelihood(t *testing.T) {
	truth := kronecker.Initiator{Theta: [4]float64{0.9, 0.6, 0.5, 0.15}}
	g, err := kronecker.Generate(truth, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(g, Config{Iterations: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLL < res.InitialLL {
		t.Fatalf("likelihood decreased: %g -> %g", res.InitialLL, res.FinalLL)
	}
	if res.K != 9 {
		t.Fatalf("K = %d, want 9", res.K)
	}
}

func TestFitRecoversEdgeBudget(t *testing.T) {
	// The fitted Σθ must predict the training graph's edge count: the
	// -S^k term anchors (Σθ)^k ≈ |E|.
	truth := kronecker.Initiator{Theta: [4]float64{0.85, 0.55, 0.45, 0.2}}
	g, err := kronecker.Generate(truth, 10, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(g, Config{Iterations: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	predicted := res.Initiator.ExpectedEdges(res.K)
	actual := float64(g.NumEdges())
	if predicted < actual*0.6 || predicted > actual*1.6 {
		t.Fatalf("predicted edges %g vs actual %g (theta %v)", predicted, actual, res.Initiator)
	}
}

func TestFitRecoversCorePeripheryOrdering(t *testing.T) {
	// A strongly core-periphery graph must fit θ00 as the largest entry and
	// θ11 as the smallest.
	truth := kronecker.Initiator{Theta: [4]float64{0.95, 0.5, 0.5, 0.08}}
	g, err := kronecker.Generate(truth, 10, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(g, Config{Iterations: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	th := res.Initiator.Theta
	if !(th[0] > th[1] && th[0] > th[2] && th[0] > th[3]) {
		t.Fatalf("θ00 not dominant: %v", res.Initiator)
	}
	if !(th[3] < th[1] && th[3] < th[2]) {
		t.Fatalf("θ11 not smallest: %v", res.Initiator)
	}
}

func TestFitDeterministic(t *testing.T) {
	g, err := kronecker.Generate(kronecker.DefaultInitiator(), 8, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Fit(g, Config{Iterations: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(g, Config{Iterations: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Initiator.Theta {
		if a.Initiator.Theta[i] != b.Initiator.Theta[i] {
			t.Fatalf("fit not deterministic: %v vs %v", a.Initiator, b.Initiator)
		}
	}
}

func TestFitCollapsesMultiEdges(t *testing.T) {
	// A multigraph and its simple projection must fit identically.
	g := graph.New(8)
	edges := [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {4, 5}, {5, 6}, {6, 7}, {0, 4}}
	for _, e := range edges {
		g.AddEdge(graph.Edge{Src: graph.VertexID(e[0]), Dst: graph.VertexID(e[1])})
		g.AddEdge(graph.Edge{Src: graph.VertexID(e[0]), Dst: graph.VertexID(e[1])}) // dup
	}
	multi, err := Fit(g, Config{Iterations: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	simple, err := Fit(g.Simplify(), Config{Iterations: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range multi.Initiator.Theta {
		if math.Abs(multi.Initiator.Theta[i]-simple.Initiator.Theta[i]) > 1e-12 {
			t.Fatalf("multigraph fit differs: %v vs %v", multi.Initiator, simple.Initiator)
		}
	}
}

func TestFitThetaStaysInBounds(t *testing.T) {
	g, err := kronecker.Generate(kronecker.DefaultInitiator(), 8, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(g, Config{Iterations: 50, LearningRate: 1.0, Seed: 11}) // aggressive LR
	if err != nil {
		t.Fatal(err)
	}
	for i, th := range res.Initiator.Theta {
		if th < 0.005-1e-12 || th > 0.995+1e-12 || math.IsNaN(th) {
			t.Fatalf("theta[%d] = %v escaped bounds", i, th)
		}
	}
}

func TestFitForGenerationMatchesBudget(t *testing.T) {
	truth := kronecker.Initiator{Theta: [4]float64{0.9, 0.55, 0.45, 0.15}}
	g, err := kronecker.Generate(truth, 10, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FitForGeneration(g, Config{Iterations: 30, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	predicted := res.Initiator.ExpectedEdges(res.K)
	actual := float64(g.Simplify().NumEdges())
	if math.Abs(predicted-actual)/actual > 0.02 {
		t.Fatalf("rescaled budget off: predicted %g actual %g", predicted, actual)
	}
}

func TestFitForGenerationOnFlowGraph(t *testing.T) {
	// The PGSK path: a trace-shaped multigraph (hub-dominated) must produce
	// a usable initiator.
	g := graph.New(64)
	for i := int64(1); i < 64; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: 0})
		if i%3 == 0 {
			g.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i / 3)})
		}
	}
	res, err := FitForGeneration(g, Config{Iterations: 40, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Initiator.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.K != 6 {
		t.Fatalf("K = %d, want 6", res.K)
	}
}
