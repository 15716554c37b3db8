package kronfit

import (
	"math"
	"math/rand/v2"
	"testing"

	"csb/internal/graph"
	"csb/internal/kronecker"
	"csb/internal/netflow"
	"csb/internal/pcap"
)

// The tests in this file hold the incremental fit (cached edge terms,
// memoised term) to the arithmetic of the plain one: every term from
// scratch with math.Log, every time.

// seedGraph is the graph csbd fits for a synthetic-seed PGSK spec.
func seedGraph(tb testing.TB, hosts, sessions int, seed uint64) *graph.Graph {
	tb.Helper()
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(hosts, sessions, seed))
	if err != nil {
		tb.Fatal(err)
	}
	return netflow.BuildGraph(netflow.Assemble(pkts, 0))
}

func kroneckerGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	g, err := kronecker.Generate(kronecker.Initiator{Theta: [4]float64{0.9, 0.6, 0.5, 0.15}}, 9, 0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestFitBitIdentityPins pins FitForGeneration to the bits the
// from-scratch implementation produced (recorded at commit 8a2c33a, before
// the term cache and the memo existed). A change that moves one of these
// changed the fit's arithmetic, not just its cost.
func TestFitBitIdentityPins(t *testing.T) {
	cases := []struct {
		name   string
		graph  func(testing.TB) *graph.Graph
		cfg    Config
		simple int
		theta  [4]uint64
		ll     uint64
	}{
		{
			name:   "serve seed hosts=100 sessions=2000 seed=1",
			graph:  func(tb testing.TB) *graph.Graph { return seedGraph(tb, 100, 2000, 1) },
			cfg:    Config{Seed: 1},
			simple: 1685,
			theta:  [4]uint64{0x3feffb4e29b05066, 0x3fde8d354eb15b9a, 0x3fec02eb66cd36a3, 0x3fe1388119d2fb07},
			ll:     0xc0b1900957912c24,
		},
		{
			name:   "serve seed hosts=100 sessions=2000 seed=2",
			graph:  func(tb testing.TB) *graph.Graph { return seedGraph(tb, 100, 2000, 2) },
			cfg:    Config{Seed: 2},
			simple: 1693,
			theta:  [4]uint64{0x3feffc927400fdd0, 0x3fdf9849c3e9b4ee, 0x3feb2931ea74ec1f, 0x3fe19b72e3fb9741},
			ll:     0xc0b1e6b05ebcb1f5,
		},
		{
			name:   "serve seed hosts=1000 sessions=20000 seed=7, 20 iterations",
			graph:  func(tb testing.TB) *graph.Graph { return seedGraph(tb, 1000, 20000, 7) },
			cfg:    Config{Seed: 7, Iterations: 20},
			simple: 19603,
			theta:  [4]uint64{0x3fee1b776159ba25, 0x3fdbb5f0e8c5bfda, 0x3fe906148667aba5, 0x3fe0fd9799a25f33},
			ll:     0xc0f57b8a0611f3a5,
		},
		{
			name:   "kronecker.Generate k=9",
			graph:  kroneckerGraph,
			cfg:    Config{Seed: 3},
			simple: 982,
			theta:  [4]uint64{0x3fea721fcec1b51e, 0x3fe62cbadefb85e0, 0x3fe2cabc5039b2bc, 0x3fa63f48d534695a},
			ll:     0xc0b196fb354b1dd9,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.graph(t)
			res, err := FitForGeneration(g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, th := range res.Initiator.Theta {
				if got := math.Float64bits(th); got != tc.theta[i] {
					t.Errorf("theta[%d] = %x (%#x), want %x", i, th, got, math.Float64frombits(tc.theta[i]))
				}
			}
			if got := math.Float64bits(res.FinalLL); got != tc.ll {
				t.Errorf("FinalLL = %x (%#x), want %x", res.FinalLL, got, math.Float64frombits(tc.ll))
			}
			if simplified := g.Simplify().NumEdges(); res.SimpleEdges != tc.simple || int64(res.SimpleEdges) != simplified {
				t.Errorf("SimpleEdges = %d, want %d (Simplify: %d)", res.SimpleEdges, tc.simple, simplified)
			}
		})
	}
}

func TestSimpleEdgesMatchesSimplify(t *testing.T) {
	g := seedGraph(t, 30, 400, 5)
	g.AddEdge(graph.Edge{Src: 3, Dst: 3})
	g.AddEdge(graph.Edge{Src: 3, Dst: 3})
	src, dst := simpleEdges(g)
	want := g.Simplify().Cols()
	if len(src) != want.Len() || len(dst) != want.Len() {
		t.Fatalf("simpleEdges has %d/%d pairs, Simplify %d", len(src), len(dst), want.Len())
	}
	for i := range src {
		if graph.VertexID(src[i]) != want.SrcID(i) || graph.VertexID(dst[i]) != want.DstID(i) {
			t.Fatalf("pair %d = (%d,%d), Simplify has (%d,%d)", i, src[i], dst[i], want.SrcID(i), want.DstID(i))
		}
	}
}

// directTerm is the term with no memo.
func directTerm(p float64) float64 { return math.Log(p) + p + p*p/2 }

// checkCache fails unless st.terms and the LL built from it carry exactly
// the bits a from-scratch evaluation at (theta, st.sigma) gives.
func checkCache(t *testing.T, st *fitState, theta *kronecker.Initiator, when string) {
	t.Helper()
	ll := st.closedForm(theta)
	for e := range st.src {
		want := directTerm(kronecker.EdgeProbability(theta, st.k, st.sigma[st.src[e]], st.sigma[st.dst[e]]))
		if math.Float64bits(st.terms[e]) != math.Float64bits(want) {
			t.Fatalf("%s: terms[%d] = %x, fresh term = %x", when, e, st.terms[e], want)
		}
		ll += want
	}
	if got := st.cachedLL(theta); math.Float64bits(got) != math.Float64bits(ll) {
		t.Fatalf("%s: cached LL = %x, from scratch = %x", when, got, ll)
	}
}

func TestCacheMatchesFromScratch(t *testing.T) {
	g := seedGraph(t, 40, 600, 3)
	g.AddEdge(graph.Edge{Src: 1, Dst: 1}) // a self-loop is listed once in inc
	src, dst := simpleEdges(g)
	st := newFitState(g.NumVertices(), src, dst, 17)
	theta := kronecker.DefaultInitiator()
	st.evalTerms(&theta, st.terms)
	checkCache(t, st, &theta, "initial fill")

	// A large first rate makes ascend reject candidates before it accepts
	// one, so the cache must also survive rejected candidates.
	lr := 50.0
	steps := 0
	for iter := 0; iter < 12; iter++ {
		for s := 0; s < 3; s++ {
			st.improveSigma(&theta, int(2*st.n))
			checkCache(t, st, &theta, "after improveSigma")
		}
		before := lr
		if st.ascend(&theta, &lr, 0.005) {
			steps++
		}
		if lr == before && steps == 0 {
			t.Fatal("first step accepted at once: raise the starting rate")
		}
		checkCache(t, st, &theta, "after ascend")
	}
	if steps == 0 || st.accepted == 0 {
		t.Fatalf("fit took %d steps and kept %d swaps: nothing exercised the cache updates", steps, st.accepted)
	}
}

func TestMemoisedTermIsExact(t *testing.T) {
	st := &fitState{}
	check := func(p float64) {
		t.Helper()
		got, want := st.term(p), directTerm(p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("term(%x) = %x, direct = %x", p, got, want)
		}
	}
	for _, p := range []float64{0, math.SmallestNonzeroFloat64, 1, math.Inf(1), 0x1p-1022} {
		check(p)
		check(p)
	}

	// Products of k values drawn from four, as the fit produces them (high
	// hit rate), then arbitrary floats (every lookup evicts).
	rng := rand.New(rand.NewPCG(1, 2))
	theta := [4]float64{0.9993, 0.4774, 0.8753, 0.5382}
	for i := 0; i < 600_000; i++ {
		p := 1.0
		for level := 0; level < 10; level++ {
			p *= theta[rng.IntN(4)]
		}
		check(p)
	}
	for i := 0; i < 400_000; i++ {
		check(rng.Float64())
	}
	if st.logCalls >= st.termEvals || st.logCalls < 400_000 {
		t.Fatalf("%d log calls for %d evaluations", st.logCalls, st.termEvals)
	}

	// Two values forced into one slot evict each other on every lookup.
	p1 := 0.25
	p2 := p1
	for memoSlot(math.Float64bits(p2)) != memoSlot(math.Float64bits(p1)) || p2 == p1 {
		p2 = rng.Float64()
	}
	misses := st.logCalls
	for i := 0; i < 1000; i++ {
		check(p1)
		check(p2)
	}
	if st.logCalls-misses != 2000 {
		t.Fatalf("colliding pair missed %d of 2000 lookups", st.logCalls-misses)
	}
}

// TestImproveSigmaKeepsDoubleCounting runs improveSigma against the plain
// loop it replaced — slice-of-slices incidence, every term evaluated
// directly on both sides of the swap — on a graph where every proposal has
// self-loops and edges joining both swapped vertices. Those edges sit in
// both incidence lists and are summed twice on each side; the permutations
// must stay equal proposal for proposal.
func TestImproveSigmaKeepsDoubleCounting(t *testing.T) {
	const n = 6
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if (u+2*v)%5 != 0 { // dense, asymmetric, with self-loops
				g.AddEdge(graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
			}
		}
	}
	src, dst := simpleEdges(g)
	st := newFitState(n, src, dst, 23)
	theta := kronecker.Initiator{Theta: [4]float64{0.8, 0.55, 0.35, 0.2}}
	st.evalTerms(&theta, st.terms)

	inc := make([][]int, n)
	for e := range src {
		inc[src[e]] = append(inc[src[e]], e)
		if dst[e] != src[e] {
			inc[dst[e]] = append(inc[dst[e]], e)
		}
	}
	sigma := make([]int64, n)
	for i := range sigma {
		sigma[i] = int64(i)
	}
	rng := rand.New(rand.NewPCG(23, 0xf17))
	sum := func(a, b int64) (s float64) {
		for _, v := range []int64{a, b} {
			for _, e := range inc[v] {
				s += directTerm(kronecker.EdgeProbability(&theta, st.k, sigma[src[e]], sigma[dst[e]]))
			}
		}
		return s
	}
	kept := int64(0)
	for round := 0; round < 50; round++ {
		st.improveSigma(&theta, 20)
		for s := 0; s < 20; s++ {
			a, b := rng.Int64N(n), rng.Int64N(n)
			if a == b {
				continue
			}
			before := sum(a, b)
			sigma[a], sigma[b] = sigma[b], sigma[a]
			if sum(a, b) >= before {
				kept++
				continue
			}
			sigma[a], sigma[b] = sigma[b], sigma[a]
		}
		for v := range sigma {
			if sigma[v] != st.sigma[v] {
				t.Fatalf("round %d: sigma = %v, plain loop has %v", round, st.sigma, sigma)
			}
		}
		checkCache(t, st, &theta, "after improveSigma")
	}
	if kept != st.accepted || kept == 0 || kept == st.swaps {
		t.Fatalf("kept %d of %d proposals, plain loop kept %d", st.accepted, st.swaps, kept)
	}
}

// TestWorkCounters guards the saving with counts that repeat exactly. With
// E simple edges and n vertices, one iteration of the from-scratch fit
// evaluated, in expectation,
//
//	3 rounds · 2n proposals · 2 sides · 2 vertices · 2E/n incident edges = 48·E
//
// terms judging swaps, plus E for the post-swap likelihood and E for the
// (first, accepted) backtracking candidate; the initial and the final
// likelihood add 2·E. That is (80·50 + 2)·1685 = 6,743,370 on this seed;
// 6,680,252 were counted at commit 8a2c33a (draws with a == b propose
// nothing). The cache leaves the 24·E after-swap terms and the candidate's
// E per iteration, plus the initial E.
func TestWorkCounters(t *testing.T) {
	res, err := FitForGeneration(seedGraph(t, 100, 2000, 1), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const iterations = 80
	fromScratch := int64(iterations*(48+2)+2) * int64(res.SimpleEdges)
	if res.TermEvals*100 > fromScratch*55 {
		t.Errorf("TermEvals = %d, over 55%% of the from-scratch %d", res.TermEvals, fromScratch)
	}
	if res.LogCalls*100 > res.TermEvals*5 {
		t.Errorf("LogCalls = %d, over 5%% of TermEvals = %d", res.LogCalls, res.TermEvals)
	}
	if res.Swaps != 47504 || res.Accepted != 378 {
		t.Errorf("Swaps, Accepted = %d, %d; the from-scratch fit made 47504, 378", res.Swaps, res.Accepted)
	}
	t.Logf("TermEvals %d (%.1f%% of from-scratch), LogCalls %d (%.2f%% of TermEvals)",
		res.TermEvals, 100*float64(res.TermEvals)/float64(fromScratch),
		res.LogCalls, 100*float64(res.LogCalls)/float64(res.TermEvals))
}

// BenchmarkFit is one KronFit at the size csbd and the repo benchmark fit:
// the hosts=100, sessions=2000 synthetic seed.
func BenchmarkFit(b *testing.B) {
	g := seedGraph(b, 100, 2000, 1)
	b.ReportAllocs()
	var logCalls int64
	for b.Loop() {
		res, err := FitForGeneration(g, Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		logCalls = res.LogCalls
	}
	b.ReportMetric(float64(logCalls), "logcalls/op")
}
