package graphalgo

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"csb/internal/graph"
)

// BetweennessOptions configures ApproxBetweenness.
type BetweennessOptions struct {
	// Samples is the number of source vertices sampled (0 means all
	// vertices, i.e. exact Brandes).
	Samples int
	// Seed drives the deterministic source sampling.
	Seed uint64
}

// betweennessBlocks is how many contiguous runs the sources are cut into,
// whatever the worker count. Each run is summed into a vector of its own and
// the runs are merged in order, so the scores' bits depend on the graph and
// the options alone, not on how many workers ran.
const betweennessBlocks = 64

// ApproxBetweenness estimates vertex betweenness centrality with Brandes'
// algorithm over sampled sources (Brandes 2001; sampling per Bader et al.).
// Scores are scaled by n/samples so sampled and exact runs are comparable.
// Edge direction is respected; multi-edges count as parallel shortest-path
// multiplicity. The sweeps run on GOMAXPROCS workers.
func ApproxBetweenness(g *graph.Graph, opt BetweennessOptions) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	csr := graph.BuildCSR(g)
	sources := make([]graph.VertexID, 0, n)
	if opt.Samples <= 0 || int64(opt.Samples) >= n {
		for v := int64(0); v < n; v++ {
			sources = append(sources, graph.VertexID(v))
		}
	} else {
		rng := rand.New(rand.NewPCG(opt.Seed, 0xbc))
		seen := make(map[graph.VertexID]struct{}, opt.Samples)
		for len(sources) < opt.Samples {
			v := graph.VertexID(rng.Int64N(n))
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			sources = append(sources, v)
		}
	}
	size := (len(sources) + betweennessBlocks - 1) / betweennessBlocks
	blocks := (len(sources) + size - 1) / size
	workers := min(runtime.GOMAXPROCS(0), blocks)

	// Workers take blocks in order and merge each into out only once every
	// earlier block is merged. The block at the head of the line is always
	// held by a running worker, so a waiting worker waits for progress, and
	// at most workers partial vectors exist at once.
	out := make([]float64, n)
	var (
		next   atomic.Int64
		mu     sync.Mutex
		merged int
		turn   = sync.NewCond(&mu)
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newBrandesState(n)
			acc := make([]float64, n)
			for b := int(next.Add(1)) - 1; b < blocks; b = int(next.Add(1)) - 1 {
				clear(acc)
				for _, s := range sources[b*size : min((b+1)*size, len(sources))] {
					st.sweep(csr, s, acc)
				}
				mu.Lock()
				for merged != b {
					turn.Wait()
				}
				for v, x := range acc {
					out[v] += x
				}
				merged++
				turn.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	scale := float64(n) / float64(len(sources))
	for v := range out {
		out[v] *= scale
	}
	return out
}

// brandesState is the per-worker scratch of one Brandes sweep.
type brandesState struct {
	dist  []int64
	sigma []float64
	delta []float64
	queue []graph.VertexID
	stack []graph.VertexID
	preds [][]graph.VertexID
}

func newBrandesState(n int64) *brandesState {
	return &brandesState{
		dist:  make([]int64, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		preds: make([][]graph.VertexID, n),
	}
}

// sweep runs one single-source Brandes pass from s, accumulating dependency
// scores into acc.
func (st *brandesState) sweep(csr *graph.CSR, s graph.VertexID, acc []float64) {
	n := csr.NumVertices()
	for v := int64(0); v < n; v++ {
		st.dist[v] = -1
		st.sigma[v] = 0
		st.delta[v] = 0
		st.preds[v] = st.preds[v][:0]
	}
	st.queue = st.queue[:0]
	st.stack = st.stack[:0]

	st.dist[s] = 0
	st.sigma[s] = 1
	st.queue = append(st.queue, s)
	for len(st.queue) > 0 {
		v := st.queue[0]
		st.queue = st.queue[1:]
		st.stack = append(st.stack, v)
		for _, w := range csr.Neighbors(v) {
			if st.dist[w] < 0 {
				st.dist[w] = st.dist[v] + 1
				st.queue = append(st.queue, w)
			}
			if st.dist[w] == st.dist[v]+1 {
				st.sigma[w] += st.sigma[v]
				st.preds[w] = append(st.preds[w], v)
			}
		}
	}
	for i := len(st.stack) - 1; i >= 0; i-- {
		w := st.stack[i]
		for _, v := range st.preds[w] {
			st.delta[v] += st.sigma[v] / st.sigma[w] * (1 + st.delta[w])
		}
		if w != s {
			acc[w] += st.delta[w]
		}
	}
}
