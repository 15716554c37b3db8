// Package kronfit estimates the 2x2 stochastic Kronecker initiator matrix of
// a graph by maximum likelihood (the KronFit procedure of Leskovec et al.,
// JMLR 2010): gradient ascent on the model likelihood, with the intractable
// node correspondence improved by greedy hill-climbing over vertex swaps
// (a proposal is kept only if it does not lower the likelihood; nothing is
// sampled or averaged), and the sum over non-edges replaced by its
// second-order Taylor closed form.
//
// Likelihood. With S = Σθ and S2 = Σθ², the log-likelihood of a graph under
// initiator θ at Kronecker power k and permutation σ is approximated by
//
//	LL(θ,σ) ≈ -S^k - S2^k/2 + Σ_{(u,v)∈E} [ log p_σ(u,v) + p_σ(u,v) + p_σ(u,v)²/2 ]
//
// where p_σ(u,v) = Π_level θ[bit(σu), bit(σv)]. The first two terms are the
// closed-form Taylor expansion of Σ_{all pairs} log(1-p); the bracketed edge
// terms swap each edge's no-edge contribution for its edge contribution.
// Only the edge terms depend on σ, so judging a swap needs just the edges
// incident to the swapped vertices.
//
// Cost. The bracketed term of every edge is cached at the current (θ,σ), so
// a swap proposal evaluates only its after-swap terms, and the term itself
// is memoised on the bit pattern of p. p is read from a per-θ table of
// products over its leading levels. All three are exact: the fitted
// initiator is bit-identical to evaluating every term from scratch
// (DESIGN.md, "KronFit cost model").
package kronfit

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"csb/internal/graph"
	"csb/internal/kronecker"
)

// Config parameterizes Fit. Zero fields select the defaults.
type Config struct {
	// Iterations is the number of gradient steps (default 80).
	Iterations int
	// LearningRate is the step size applied to the per-edge-normalized
	// gradient (default 0.05).
	LearningRate float64
	// PermSamples is the number of hill-climbing rounds over the node
	// correspondence before each gradient step (default 3). Rounds are
	// not averaged: each continues from the permutation the last one left.
	PermSamples int
	// SwapsPerSample is the number of vertex-swap proposals per round
	// (default 2 * number of vertices). A proposal is kept only if it does
	// not lower the likelihood.
	SwapsPerSample int
	// MinTheta is the lower projection bound keeping the likelihood finite
	// (default 0.005, must be below 0.5); the upper bound is 1 - MinTheta.
	MinTheta float64
	// Init is the starting initiator, every entry in (0,1) (default
	// kronecker.DefaultInitiator).
	Init kronecker.Initiator
	// Seed drives the deterministic RNG.
	Seed uint64
}

func (c *Config) fill() {
	if c.Iterations == 0 {
		c.Iterations = 80
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.PermSamples == 0 {
		c.PermSamples = 3
	}
	if c.MinTheta == 0 {
		c.MinTheta = 0.005
	}
	if c.Init.Sum() == 0 {
		c.Init = kronecker.DefaultInitiator()
	}
}

// validate rejects a filled Config that cannot produce a meaningful fit.
// The comparisons are written so that NaN fails them.
func (c *Config) validate() error {
	switch {
	case c.Iterations < 0:
		return fmt.Errorf("kronfit: Iterations %d is negative", c.Iterations)
	case c.PermSamples < 0:
		return fmt.Errorf("kronfit: PermSamples %d is negative", c.PermSamples)
	case c.SwapsPerSample < 0:
		return fmt.Errorf("kronfit: SwapsPerSample %d is negative", c.SwapsPerSample)
	case !(c.LearningRate > 0) || math.IsInf(c.LearningRate, 0):
		return fmt.Errorf("kronfit: LearningRate %g is not a positive finite number", c.LearningRate)
	case !(c.MinTheta > 0 && c.MinTheta < 0.5):
		return fmt.Errorf("kronfit: MinTheta %g is outside (0, 0.5)", c.MinTheta)
	}
	for i, th := range c.Init.Theta {
		if !(th > 0 && th < 1) {
			return fmt.Errorf("kronfit: Init.Theta[%d] = %g is outside (0, 1)", i, th)
		}
	}
	return nil
}

// Result reports the fitted initiator and diagnostics.
type Result struct {
	Initiator   kronecker.Initiator
	K           int     // Kronecker power covering the graph: ceil(log2 |V|)
	InitialLL   float64 // likelihood at the starting point
	FinalLL     float64 // likelihood at the fitted point
	SimpleEdges int     // edges of the simple projection the fit ran on

	// Work counters. They depend only on the graph and the Config, so they
	// repeat exactly from run to run and host to host.
	Swaps     int64 // swap proposals evaluated (draws with a == b excluded)
	Accepted  int64 // proposals kept
	TermEvals int64 // edge-term evaluations, memo hits included
	LogCalls  int64 // math.Log calls, i.e. memo misses
}

// memoSize is the slot count of the per-fit term memo: 4,096 slots of 16
// bytes are 64 KiB. p is a left-to-right product of k values drawn from
// four, so it takes few distinct bit patterns; at this size the hit rate
// measured 98% (n=100, k=7), 95% (n=1,000, k=10) and 93% (n=5,000, k=13).
const (
	memoBits = 12
	memoSize = 1 << memoBits
)

// memoEntry maps the bit pattern of one p to log p + p + p²/2.
type memoEntry struct {
	key uint64
	val float64
}

func memoSlot(bits uint64) uint64 {
	return bits * 0x9e3779b97f4a7c15 >> (64 - memoBits) // Fibonacci hashing
}

// prefixLevels caps the levels of p the prefix table covers: 4^7 float64
// entries are 128 KiB, and a rebuild is ≈ 22k multiplies.
const prefixLevels = 7

// fitState bundles the per-fit data. Nothing in it is shared between fits.
type fitState struct {
	src, dst []int32 // simple-graph edges in first-occurrence order
	// CSR incidence: the edges touching v are incIdx[incOff[v]:incOff[v+1]]
	// in edge order. A self-loop is listed once.
	incOff, incIdx []int32
	sigma          []int64 // graph vertex -> Kronecker vertex
	// spread[v] is sigma[v] with bit i moved to bit 2i, so the interleaved
	// index of edge (u,v) is spread[u]<<1 | spread[v]: its base-4 digits,
	// most significant first, are the levels' θ indices. It is swapped
	// together with sigma.
	spread []uint64
	k      int
	n      int64
	rng    *rand.Rand

	// terms[e] is the edge term of e at the θ and σ the fit currently
	// holds; LL sums and swap proposals read it and never recompute it.
	terms []float64
	// cand receives a backtracking candidate's terms, and becomes terms
	// when the candidate is accepted; after receives one proposal's
	// after-swap terms.
	cand, after []float64
	// memo is direct mapped: a colliding p overwrites the slot.
	memo [memoSize]memoEntry
	// prefix[t] is the left-to-right product of θ over the base-4 digits
	// of t, for the h = min(k, prefixLevels) leading levels, at the
	// initiator prefixTheta; tail is 2(k-h), the bits of an interleaved
	// index below the table's digits. nil until setTheta first runs.
	prefix      []float64
	prefixTheta kronecker.Initiator
	tail        uint

	swaps, accepted, termEvals, logCalls int64
}

// simpleEdges returns the simple projection of g as (src, dst) columns: the
// first occurrence of every ordered vertex pair, in edge order (the E -> Ep
// step of PGSK, as graph.Simplify orders it, without the property columns).
func simpleEdges(g *graph.Graph) (src, dst []int32) {
	cols := g.Cols()
	seen := make(map[[2]int32]struct{}, cols.Len())
	for i := 0; i < cols.Len(); i++ {
		pair := [2]int32{int32(cols.SrcID(i)), int32(cols.DstID(i))}
		if _, dup := seen[pair]; dup {
			continue
		}
		seen[pair] = struct{}{}
		src = append(src, pair[0])
		dst = append(dst, pair[1])
	}
	return src, dst
}

// newFitState indexes the simple edges of an n-vertex graph and starts from
// the identity permutation.
func newFitState(n int64, src, dst []int32, seed uint64) *fitState {
	st := &fitState{
		src: src, dst: dst,
		k:     bitsFor(n),
		n:     n,
		rng:   rand.New(rand.NewPCG(seed, 0xf17)),
		terms: make([]float64, len(src)),
		cand:  make([]float64, len(src)),
	}
	st.incOff = make([]int32, n+1)
	for e := range src {
		st.incOff[src[e]+1]++
		if dst[e] != src[e] {
			st.incOff[dst[e]+1]++
		}
	}
	for v := int64(0); v < n; v++ {
		st.incOff[v+1] += st.incOff[v]
	}
	st.incIdx = make([]int32, st.incOff[n])
	next := append([]int32(nil), st.incOff[:n]...)
	for e := range src {
		st.incIdx[next[src[e]]] = int32(e)
		next[src[e]]++
		if dst[e] != src[e] {
			st.incIdx[next[dst[e]]] = int32(e)
			next[dst[e]]++
		}
	}
	st.sigma = make([]int64, n)
	st.spread = make([]uint64, n)
	for i := range st.sigma {
		st.sigma[i] = int64(i)
		st.spread[i] = spreadBits(uint64(i))
	}
	return st
}

// spreadBits moves bit i of x to bit 2i; x must be below 2^32.
func spreadBits(x uint64) uint64 {
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	return (x | x<<1) & 0x5555555555555555
}

// setTheta makes the prefix table hold theta, rebuilding it only when it
// holds another initiator. Level d's entries are level d-1's times one
// more θ, in the order kronecker.EdgeProbability multiplies them (its
// leading 1.0·θ is exact), so every entry carries its bits.
func (st *fitState) setTheta(theta *kronecker.Initiator) {
	if st.prefix != nil && st.prefixTheta == *theta {
		return
	}
	if st.prefix == nil {
		h := min(st.k, prefixLevels)
		st.prefix = make([]float64, 1<<(2*h))
		st.tail = uint(2 * (st.k - h))
	}
	th := theta.Theta
	copy(st.prefix, th[:])
	for n := 4; n < len(st.prefix); n *= 4 {
		// Entry j of level d becomes entries 4j..4j+3 of level d+1. Last
		// group first, so each prefix[j] is read before it is overwritten.
		for j := n - 1; j >= 0; j-- {
			p, g := st.prefix[j], st.prefix[4*j:4*j+4]
			g[0], g[1], g[2], g[3] = p*th[0], p*th[1], p*th[2], p*th[3]
		}
	}
	st.prefixTheta = *theta
}

// prob returns p for the interleaved index z at the table's initiator: the
// table entry for the leading levels, then the remaining levels in order.
func (st *fitState) prob(z uint64) float64 {
	p := st.prefix[z>>st.tail]
	for s := st.tail; s != 0; {
		s -= 2
		p *= st.prefixTheta.Theta[z>>s&3]
	}
	return p
}

// edgeIndex returns the interleaved index of edge e under the current σ.
func (st *fitState) edgeIndex(e int32) uint64 {
	return st.spread[st.src[e]]<<1 | st.spread[st.dst[e]]
}

// levelCounts returns how many of the k levels of (u,v) select each θ
// index ub<<1 | vb.
func levelCounts(k int, u, v int64) [4]int {
	a, b := uint64(u), uint64(v)
	return [4]int{k - bits.OnesCount64(a|b), bits.OnesCount64(b &^ a), bits.OnesCount64(a &^ b), bits.OnesCount64(a & b)}
}

// Fit estimates the initiator of g. Multi-edges are collapsed first (KronFit
// models a simple graph, mirroring the Gp construction of the PGSK
// algorithm).
func Fit(g *graph.Graph, cfg Config) (*Result, error) {
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.SwapsPerSample == 0 {
		cfg.SwapsPerSample = int(2 * g.NumVertices())
	}
	if g.NumEdges() == 0 {
		return nil, errors.New("kronfit: graph has no edges")
	}
	n := g.NumVertices()
	if n < 2 {
		return nil, errors.New("kronfit: graph has fewer than 2 vertices")
	}
	// Vertices, edges and the incidence index (two entries per edge) are
	// held as int32.
	if n > math.MaxInt32 || g.NumEdges() > math.MaxInt32/2 {
		return nil, errors.New("kronfit: graph exceeds 2^31-1 vertices or 2^30 edges")
	}
	src, dst := simpleEdges(g)
	st := newFitState(n, src, dst, cfg.Seed)

	theta := cfg.Init
	res := &Result{K: st.k, SimpleEdges: len(src)}
	res.InitialLL = st.evalTerms(&theta, st.terms)
	lr := cfg.LearningRate
	for iter := 0; iter < cfg.Iterations; iter++ {
		// Improve the node correspondence first; hill-climbing keeps the
		// likelihood monotone (a full Metropolis chain mixes too slowly at
		// this scale and random-walks away from good permutations).
		for s := 0; s < cfg.PermSamples; s++ {
			st.improveSigma(&theta, cfg.SwapsPerSample)
		}
		if !st.ascend(&theta, &lr, cfg.MinTheta) && lr < 1e-12 {
			break // converged: no admissible step remains
		}
	}
	res.Initiator = theta
	res.FinalLL = st.cachedLL(&theta)
	res.Swaps, res.Accepted = st.swaps, st.accepted
	res.TermEvals, res.LogCalls = st.termEvals, st.logCalls
	return res, nil
}

// ascend moves theta one gradient step, backtracking (halving *lr) until
// the step does not lower the likelihood; it reports whether a step was
// taken. The accepted candidate's terms become the cache, so the cache is
// never refilled.
func (st *fitState) ascend(theta *kronecker.Initiator, lr *float64, minTheta float64) bool {
	currentLL := st.cachedLL(theta)
	grad := st.gradient(theta)
	for attempt := 0; attempt < 8; attempt++ {
		// Normalize by edge count so the learning rate is scale free.
		cand := *theta
		scale := *lr / float64(len(st.src))
		for i := range cand.Theta {
			cand.Theta[i] = clamp(cand.Theta[i]+scale*grad[i], minTheta, 1-minTheta)
		}
		if ll := st.evalTerms(&cand, st.cand); ll >= currentLL {
			*theta = cand
			st.terms, st.cand = st.cand, st.terms
			return true
		}
		*lr /= 2
	}
	return false
}

// bitsFor returns ceil(log2(n)) with a minimum of 1.
func bitsFor(n int64) int {
	k := 1
	for int64(1)<<uint(k) < n {
		k++
	}
	return k
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// term returns log p + p + p²/2, from the memo when it holds this exact p.
// The key is the whole bit pattern, so a hit returns the float a direct
// evaluation would. An empty slot has key 0, so p = +0 is never a hit.
func (st *fitState) term(p float64) float64 {
	st.termEvals++
	bits := math.Float64bits(p)
	m := &st.memo[memoSlot(bits)]
	if m.key == bits && bits != 0 {
		return m.val
	}
	st.logCalls++
	m.key, m.val = bits, math.Log(p)+p+p*p/2
	return m.val
}

// edgeTerm returns the term of edge e under the current σ and the table's
// initiator.
func (st *fitState) edgeTerm(e int32) float64 {
	return st.term(st.prob(st.edgeIndex(e)))
}

// closedForm is the σ-independent part of the likelihood.
func (st *fitState) closedForm(theta *kronecker.Initiator) float64 {
	kf := float64(st.k)
	return -math.Pow(theta.Sum(), kf) - math.Pow(theta.SumSquares(), kf)/2
}

// evalTerms writes every edge's term at theta and the current σ into out
// and returns the approximate LL: the closed form plus the terms in edge
// order.
func (st *fitState) evalTerms(theta *kronecker.Initiator, out []float64) float64 {
	st.setTheta(theta)
	ll := st.closedForm(theta)
	for e := range out {
		out[e] = st.edgeTerm(int32(e))
		ll += out[e]
	}
	return ll
}

// cachedLL is evalTerms without the evaluations: theta must be the
// initiator st.terms was computed at.
func (st *fitState) cachedLL(theta *kronecker.Initiator) float64 {
	ll := st.closedForm(theta)
	for _, t := range st.terms {
		ll += t
	}
	return ll
}

// incident returns the edges touching v, in edge order.
func (st *fitState) incident(v int64) []int32 {
	return st.incIdx[st.incOff[v]:st.incOff[v+1]]
}

// improveSigma performs `swaps` random swap proposals on σ, accepting only
// those that do not lower the edge-term likelihood (the closed-form no-edge
// terms are permutation invariant, so only edges incident to the swapped
// vertices matter). Both sides sum a's edges, then b's, in incidence order.
func (st *fitState) improveSigma(theta *kronecker.Initiator, swaps int) {
	st.setTheta(theta)
	for s := 0; s < swaps; s++ {
		a := st.rng.Int64N(st.n)
		b := st.rng.Int64N(st.n)
		if a == b {
			continue
		}
		st.swaps++
		sides := [2][]int32{st.incident(a), st.incident(b)}
		var before, after float64
		for _, inc := range sides {
			for _, e := range inc {
				before += st.terms[e]
			}
		}
		st.swap(a, b)
		st.after = st.after[:0]
		for _, inc := range sides {
			for _, e := range inc {
				t := st.edgeTerm(e)
				st.after = append(st.after, t)
				after += t
			}
		}
		// Edges incident to both a and b are double counted identically on
		// both sides, so the comparison is unaffected.
		if after >= before {
			st.accepted++
			i := 0
			for _, inc := range sides {
				for _, e := range inc {
					st.terms[e] = st.after[i]
					i++
				}
			}
			continue
		}
		st.swap(a, b) // reject: undo
	}
}

// swap exchanges the Kronecker vertices of a and b.
func (st *fitState) swap(a, b int64) {
	st.sigma[a], st.sigma[b] = st.sigma[b], st.sigma[a]
	st.spread[a], st.spread[b] = st.spread[b], st.spread[a]
}

// gradient evaluates dLL/dθ at the current permutation.
func (st *fitState) gradient(theta *kronecker.Initiator) [4]float64 {
	kf := float64(st.k)
	s := theta.Sum()
	s2 := theta.SumSquares()
	var grad [4]float64
	for i := range grad {
		grad[i] = -kf*math.Pow(s, kf-1) - kf*math.Pow(s2, kf-1)*theta.Theta[i]
	}
	st.setTheta(theta)
	for e := range st.src {
		p := st.prob(st.edgeIndex(int32(e)))
		counts := levelCounts(st.k, st.sigma[st.src[e]], st.sigma[st.dst[e]])
		f := 1 + p + p*p
		for i := range grad {
			if counts[i] > 0 {
				grad[i] += float64(counts[i]) / theta.Theta[i] * f
			}
		}
	}
	return grad
}

// FitForGeneration is the convenience used by PGSK: it fits g and returns an
// initiator rescaled so its expected edge count at power K exactly matches
// the simple graph's edge count (KronFit optimizes shape; the paper's
// pipeline needs the edge budget to match the seed).
func FitForGeneration(g *graph.Graph, cfg Config) (*Result, error) {
	res, err := Fit(g, cfg)
	if err != nil {
		return nil, err
	}
	want := math.Pow(float64(res.SimpleEdges), 1/float64(res.K)) // per-level edge budget
	have := res.Initiator.Sum()
	if have > 0 {
		f := want / have
		for i := range res.Initiator.Theta {
			res.Initiator.Theta[i] = clamp(res.Initiator.Theta[i]*f, 1e-4, 1-1e-4)
		}
	}
	if err := res.Initiator.Validate(); err != nil {
		return nil, fmt.Errorf("kronfit: rescaled initiator invalid: %w", err)
	}
	return res, nil
}
