// Package eval is the fidelity–utility evaluation harness: the subsystem
// that turns this repo from "generates synthetic data" into "benchmarks
// generators", the paper's actual thesis. It has two halves:
//
//   - A metric suite (Evaluate, Utility): per-attribute distribution
//     distances (Jensen–Shannon divergence, earth-mover's distance and the
//     Kolmogorov–Smirnov statistic over the degree, flow-size, duration,
//     port and protocol marginals), graph-structure statistics (clustering
//     coefficients, triangles, degree assortativity, PageRank quantile
//     correlation against the seed) alongside the paper's original veracity
//     scores, and a *utility* metric — tune a detector on a synthetic
//     labeled scenario and score it on a held-out seed-derived scenario,
//     reporting the synthetic-vs-native F1 gap (the fidelity–utility
//     trade-off of arXiv 2410.16326).
//
//   - An experiment-grid runner (GridSpec, Runner — see grid.go and
//     runner.go): a reproducible generators × sizes × seeds × repeats grid
//     driven by an experiments.json spec, executed locally in parallel or
//     sharded across internal/dist workers, writing
//     runs/<stamp>/{results.csv,logs/,analysis.md}.
//
// Everything here is deterministic: a grid cell is a pure function of its
// payload, so the same spec yields byte-identical results.csv at any
// parallelism, on one process or sharded across workers.
package eval

import (
	"fmt"
	"math"
	"sort"

	"csb/internal/graph"
	"csb/internal/graphalgo"
	"csb/internal/pagerank"
	"csb/internal/stats"
)

// AttrDistance is the distribution-distance triple of one attribute
// marginal, synthetic vs seed.
type AttrDistance struct {
	JS  float64 `json:"js"`  // Jensen-Shannon divergence, bits, in [0,1]
	EMD float64 `json:"emd"` // earth-mover's distance, attribute units
	KS  float64 `json:"ks"`  // Kolmogorov-Smirnov statistic, in [0,1]
}

// Report is the full fidelity report of one synthetic graph against its
// seed. Distance fields compare marginals (lower = more faithful);
// structure fields report the synthetic graph's statistic plus its absolute
// gap to the seed's (lower gap = more faithful); PageRankCorr is a
// correlation (higher = more faithful).
type Report struct {
	Vertices int64 `json:"vertices"`
	Edges    int64 `json:"edges"`

	Degree   AttrDistance `json:"degree"`
	FlowSize AttrDistance `json:"flow_size"`
	Duration AttrDistance `json:"duration"`
	DstPort  AttrDistance `json:"dst_port"`
	Proto    AttrDistance `json:"proto"`

	// The paper's Section V-A veracity scores (Figures 6-7).
	DegreeVeracity   float64 `json:"degree_veracity"`
	PageRankVeracity float64 `json:"pagerank_veracity"`

	// Structure statistics of the synthetic graph's undirected simple view.
	Clustering       float64 `json:"clustering"`     // average local coefficient
	ClusteringGap    float64 `json:"clustering_gap"` // |synthetic - seed|
	Transitivity     float64 `json:"transitivity"`   // global coefficient
	Triangles        int64   `json:"triangles"`
	Assortativity    float64 `json:"assortativity"`
	AssortativityGap float64 `json:"assortativity_gap"` // |synthetic - seed|

	// PageRankCorr is the Pearson correlation of the seed's and the
	// synthetic graph's rank-aligned PageRank quantile profiles: both rank
	// vectors sorted descending and resampled at Options.PageRankPoints
	// evenly spaced rank quantiles (vertex identities do not correspond
	// across graphs, so rank position is the only meaningful alignment).
	// 1 means the normalized rank-mass profiles have identical shape.
	PageRankCorr float64 `json:"pagerank_corr"`
}

// Options configures Evaluate. The zero value selects the defaults.
type Options struct {
	// PageRankPoints is the number of rank quantiles the PageRank profiles
	// are resampled at (default 100).
	PageRankPoints int
}

func (o *Options) fill() {
	if o.PageRankPoints == 0 {
		o.PageRankPoints = 100
	}
}

// Evaluate computes the fidelity report of a synthetic graph against the
// seed graph it was grown from.
func Evaluate(seed, synthetic *graph.Graph, opts Options) (*Report, error) {
	opts.fill()
	r := &Report{
		Vertices: synthetic.NumVertices(),
		Edges:    synthetic.NumEdges(),
	}

	// Per-attribute distribution distances over the five marginals.
	sm := marginals(seed)
	gm := marginals(synthetic)
	var err error
	if r.Degree, err = attrDistance(sm.degree, gm.degree); err != nil {
		return nil, fmt.Errorf("eval: degree marginal: %w", err)
	}
	if r.FlowSize, err = attrDistance(sm.flowSize, gm.flowSize); err != nil {
		return nil, fmt.Errorf("eval: flow-size marginal: %w", err)
	}
	if r.Duration, err = attrDistance(sm.duration, gm.duration); err != nil {
		return nil, fmt.Errorf("eval: duration marginal: %w", err)
	}
	if r.DstPort, err = attrDistance(sm.dstPort, gm.dstPort); err != nil {
		return nil, fmt.Errorf("eval: dst-port marginal: %w", err)
	}
	if r.Proto, err = attrDistance(sm.proto, gm.proto); err != nil {
		return nil, fmt.Errorf("eval: proto marginal: %w", err)
	}

	// The paper's veracity scores.
	if r.DegreeVeracity, err = stats.VeracityScoreInt(sm.degree, gm.degree); err != nil {
		return nil, fmt.Errorf("eval: degree veracity: %w", err)
	}
	seedPR, err := pagerank.Compute(seed)
	if err != nil {
		return nil, fmt.Errorf("eval: seed pagerank: %w", err)
	}
	synPR, err := pagerank.Compute(synthetic)
	if err != nil {
		return nil, fmt.Errorf("eval: synthetic pagerank: %w", err)
	}
	if r.PageRankVeracity, err = stats.VeracityScore(seedPR.Ranks, synPR.Ranks); err != nil {
		return nil, fmt.Errorf("eval: pagerank veracity: %w", err)
	}

	// Structure statistics. Assortativity is NaN on degenerate graphs
	// (regular or edge-free); the report must stay JSON-encodable for the
	// dist wire, so that surfaces as an error here rather than a NaN that
	// fails to marshal three layers up.
	seedAvg, _ := graphalgo.ClusteringCoefficients(seed)
	r.Clustering, r.Transitivity = graphalgo.ClusteringCoefficients(synthetic)
	r.ClusteringGap = math.Abs(r.Clustering - seedAvg)
	r.Triangles = graphalgo.Triangles(synthetic)
	r.Assortativity = graphalgo.DegreeAssortativity(synthetic)
	seedAssort := graphalgo.DegreeAssortativity(seed)
	if math.IsNaN(r.Assortativity) || math.IsNaN(seedAssort) {
		return nil, fmt.Errorf("eval: degree assortativity undefined (degenerate graph: synthetic=%v seed=%v)",
			r.Assortativity, seedAssort)
	}
	r.AssortativityGap = math.Abs(r.Assortativity - seedAssort)

	// PageRank rank-profile correlation.
	r.PageRankCorr, err = quantileCorrelation(seedPR.Ranks, synPR.Ranks, opts.PageRankPoints)
	if err != nil {
		return nil, fmt.Errorf("eval: pagerank correlation: %w", err)
	}
	return r, nil
}

// marginalSet holds the five attribute marginals of one graph as raw int64
// samples, the common currency of the distance metrics.
type marginalSet struct {
	degree   []int64 // per-vertex total degree, zero-degree vertices excluded
	flowSize []int64 // per-edge total bytes (both directions)
	duration []int64 // per-edge duration, milliseconds
	dstPort  []int64 // per-edge destination port
	proto    []int64 // per-edge protocol code
}

func marginals(g *graph.Graph) marginalSet {
	var m marginalSet
	for _, d := range g.Degrees() {
		if d > 0 {
			m.degree = append(m.degree, d)
		}
	}
	cols := g.Cols()
	n := cols.Len()
	m.flowSize = make([]int64, n)
	m.duration = make([]int64, n)
	m.dstPort = make([]int64, n)
	m.proto = make([]int64, n)
	for i := 0; i < n; i++ {
		m.flowSize[i] = cols.OutBytes(i) + cols.InBytes(i)
		m.duration[i] = cols.Duration(i)
		m.dstPort[i] = int64(cols.DstPort(i))
		m.proto[i] = int64(cols.Protocol(i))
	}
	return m
}

// attrDistance computes the JS/EMD/KS triple of one marginal.
func attrDistance(seed, synthetic []int64) (AttrDistance, error) {
	var d AttrDistance
	var err error
	if d.JS, err = stats.JSDivergence(seed, synthetic); err != nil {
		return d, err
	}
	if d.EMD, err = stats.EMDistance(seed, synthetic); err != nil {
		return d, err
	}
	d.KS = stats.KSDistance(seed, synthetic)
	return d, nil
}

// quantileCorrelation aligns two positive vectors by rank — sorted
// descending, each normalized by its own sum, resampled at `points` evenly
// spaced rank quantiles — and returns the Pearson correlation of the two
// profiles.
func quantileCorrelation(a, b []float64, points int) (float64, error) {
	pa, err := rankProfile(a, points)
	if err != nil {
		return 0, err
	}
	pb, err := rankProfile(b, points)
	if err != nil {
		return 0, err
	}
	return stats.Pearson(pa, pb)
}

func rankProfile(xs []float64, points int) ([]float64, error) {
	norm, err := stats.Normalize(xs)
	if err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(norm)))
	out := make([]float64, points)
	for i := 0; i < points; i++ {
		// Rank quantile i/(points-1) maps onto index round(q * (len-1)).
		q := float64(i) / float64(points-1)
		idx := int(q*float64(len(norm)-1) + 0.5)
		out[i] = norm[idx]
	}
	return out, nil
}
