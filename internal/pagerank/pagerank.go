// Package pagerank implements parallel PageRank by power iteration, the
// second structural metric of the paper's veracity evaluation (Figure 7).
package pagerank

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"csb/internal/graph"
	"csb/internal/stats"
)

// Options configures Compute. The zero value selects the standard defaults.
type Options struct {
	// Damping is the damping factor d (default 0.85).
	Damping float64
	// MaxIter bounds the number of power iterations (default 100).
	MaxIter int
	// Tol is the L1 convergence threshold (default 1e-10).
	Tol float64
	// Parallelism is the number of worker goroutines (default GOMAXPROCS).
	Parallelism int
}

func (o *Options) fill() {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// Result carries the PageRank vector and convergence information.
type Result struct {
	Ranks      []float64 // sums to 1
	Iterations int
	Converged  bool
}

// Compute runs PageRank on g. Multi-edges contribute proportionally (an
// originator with three flows to the same responder pushes rank three ways
// along them, matching GraphX behaviour on multigraphs). Dangling mass is
// redistributed uniformly.
func Compute(g *graph.Graph, opt Options) (*Result, error) {
	if g.NumVertices() == 0 {
		return nil, errors.New("pagerank: empty graph")
	}
	opt.fill()
	if opt.Damping <= 0 || opt.Damping >= 1 {
		return nil, errors.New("pagerank: damping must be in (0,1)")
	}
	n := g.NumVertices()
	rev := graph.BuildReverseCSR(g)
	outDeg := g.OutDegrees()

	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1 / float64(n)
	for i := range rank {
		rank[i] = inv
	}

	res := &Result{}
	for iter := 0; iter < opt.MaxIter; iter++ {
		// Dangling vertices donate their mass uniformly.
		var dangling float64
		for v := int64(0); v < n; v++ {
			if outDeg[v] == 0 {
				dangling += rank[v]
			}
		}
		base := (1-opt.Damping)*inv + opt.Damping*dangling*inv

		diff := parallelSweep(n, opt.Parallelism, func(lo, hi int64) float64 {
			var localDiff float64
			for v := lo; v < hi; v++ {
				var sum float64
				for _, u := range rev.Neighbors(graph.VertexID(v)) {
					sum += rank[u] / float64(outDeg[u])
				}
				nv := base + opt.Damping*sum
				localDiff += math.Abs(nv - rank[v])
				next[v] = nv
			}
			return localDiff
		})
		rank, next = next, rank
		res.Iterations = iter + 1
		if diff < opt.Tol {
			res.Converged = true
			break
		}
	}
	res.Ranks = rank
	return res, nil
}

// Veracity computes the PageRank veracity score of a synthetic graph against
// its seed (Section V-A; smaller is better), both ranked with the defaults.
func Veracity(seed, synthetic *graph.Graph) (float64, error) {
	seedPR, err := Compute(seed, Options{})
	if err != nil {
		return 0, fmt.Errorf("seed pagerank: %w", err)
	}
	synPR, err := Compute(synthetic, Options{})
	if err != nil {
		return 0, fmt.Errorf("synthetic pagerank: %w", err)
	}
	return stats.VeracityScore(seedPR.Ranks, synPR.Ranks)
}

// parallelSweep splits [0,n) into chunks, runs body on workers, and returns
// the summed per-chunk results.
func parallelSweep(n int64, workers int, body func(lo, hi int64) float64) float64 {
	if workers < 1 {
		workers = 1
	}
	if int64(workers) > n {
		workers = int(n)
	}
	chunk := (n + int64(workers) - 1) / int64(workers)
	results := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := int64(w) * chunk
		hi := lo + chunk
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			results[w] = body(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var total float64
	for _, r := range results {
		total += r
	}
	return total
}
