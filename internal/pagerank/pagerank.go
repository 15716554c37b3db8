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

// The standard PageRank settings. damping is typed so that it is rounded to
// float64 before 1-damping is taken, as in float64 arithmetic: an untyped
// constant would fold 1-0.85 exactly and move every rank in its last bit.
const (
	damping float64 = 0.85
	maxIter         = 100   // bound on the power iterations
	tol             = 1e-10 // L1 convergence threshold
)

// Result carries the PageRank vector and convergence information.
type Result struct {
	Ranks      []float64 // sums to 1
	Iterations int
	Converged  bool
}

// Compute runs PageRank on g. Multi-edges contribute proportionally (an
// originator with three flows to the same responder pushes rank three ways
// along them, matching GraphX behaviour on multigraphs). Dangling mass is
// redistributed uniformly. The sweeps run on GOMAXPROCS workers; each
// vertex's new rank is computed by one worker alone and the residual is
// summed over fixed ranges, so the result does not depend on how many
// workers there are.
func Compute(g *graph.Graph) (*Result, error) {
	if g.NumVertices() == 0 {
		return nil, errors.New("pagerank: empty graph")
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

	workers := runtime.GOMAXPROCS(0)
	res := &Result{}
	for iter := 0; iter < maxIter; iter++ {
		// Dangling vertices donate their mass uniformly.
		var dangling float64
		for v := int64(0); v < n; v++ {
			if outDeg[v] == 0 {
				dangling += rank[v]
			}
		}
		base := (1-damping)*inv + damping*dangling*inv

		diff := parallelSweep(n, workers, func(lo, hi int64) float64 {
			var localDiff float64
			for v := lo; v < hi; v++ {
				var sum float64
				for _, u := range rev.Neighbors(graph.VertexID(v)) {
					sum += rank[u] / float64(outDeg[u])
				}
				nv := base + damping*sum
				localDiff += math.Abs(nv - rank[v])
				next[v] = nv
			}
			return localDiff
		})
		rank, next = next, rank
		res.Iterations = iter + 1
		if diff < tol {
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
	seedPR, err := Compute(seed)
	if err != nil {
		return 0, fmt.Errorf("seed pagerank: %w", err)
	}
	synPR, err := Compute(synthetic)
	if err != nil {
		return 0, fmt.Errorf("synthetic pagerank: %w", err)
	}
	return stats.VeracityScore(seedPR.Ranks, synPR.Ranks)
}

// sweepBlocks is how many ranges parallelSweep cuts [0,n) into, whatever
// the worker count, so the summed result has the same bits on every host.
const sweepBlocks = 64

// parallelSweep cuts [0,n) into sweepBlocks ranges, runs body on them from
// workers goroutines, and returns the per-range results summed in range
// order.
func parallelSweep(n int64, workers int, body func(lo, hi int64) float64) float64 {
	size := (n + sweepBlocks - 1) / sweepBlocks
	blocks := int((n + size - 1) / size)
	workers = min(workers, blocks)
	results := make([]float64, blocks)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := w; b < blocks; b += workers {
				lo := int64(b) * size
				results[b] = body(lo, min(lo+size, n))
			}
		}()
	}
	wg.Wait()
	var total float64
	for _, r := range results {
		total += r
	}
	return total
}
