package eval_test

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"csb/internal/core"
	"csb/internal/graph"
	"csb/internal/serve"
)

// degreeSeries is one Figure 5 series: x is a degree divided by the sum of
// degrees, y the fraction of positive-degree vertices with that degree, in
// increasing x.
type degreeSeries struct {
	vertices int64
	xs, ys   []float64
}

func normalizedDegreeSeries(degrees []int64) degreeSeries {
	var sum int64
	counts := map[int64]int64{}
	for _, d := range degrees {
		if d > 0 {
			sum += d
			counts[d]++
		}
	}
	var s degreeSeries
	for _, c := range counts {
		s.vertices += c
	}
	for _, d := range slices.Sorted(maps.Keys(counts)) {
		s.xs = append(s.xs, float64(d)/float64(sum))
		s.ys = append(s.ys, float64(counts[d])/float64(s.vertices))
	}
	return s
}

// slope is the least-squares slope of log y on log x.
func (s degreeSeries) slope() float64 {
	var sx, sy, sxx, sxy float64
	for i := range s.xs {
		x, y := math.Log(s.xs[i]), math.Log(s.ys[i])
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	n := float64(len(s.xs))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// localMaxima counts the interior points above both neighbours: the
// spikes of the plot.
func (s degreeSeries) localMaxima() int {
	n := 0
	for i := 1; i+1 < len(s.ys); i++ {
		if s.ys[i] > s.ys[i-1] && s.ys[i] > s.ys[i+1] {
			n++
		}
	}
	return n
}

// sci renders x with prec decimals in the mantissa and no exponent padding:
// 3.75e-3.
func sci(x float64, prec int) string {
	mant, exp, _ := strings.Cut(strconv.FormatFloat(x, 'e', prec, 64), "e")
	e, _ := strconv.Atoi(exp)
	return fmt.Sprintf("%se%d", mant, e)
}

// servedGraph decodes the csbg artifact csbd serves for spec.
func servedGraph(t *testing.T, spec serve.Spec) *graph.Graph {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	art, err := serve.BuildArtifact(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Read(bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFig5DegreeDistributions regenerates Figure 5 from the seed and the
// graphs csbd serves for {pgpba, fraction 0.1} and {pgsk} at 2,000,000
// edges, seed 20171010, 100 hosts and 2,000 sessions. Every number of
// EXPERIMENTS.md's Figure 5 table is what the series give, and the
// section's three measured sentences hold: the slopes differ (PGPBA's is
// the steepest, PGSK's the flattest); PGPBA's series sits three orders of
// magnitude left of the seed's and two below, PGSK's one left and one
// below; and PGSK has more local maxima than PGPBA but a smaller share of
// its points.
func TestFig5DegreeDistributions(t *testing.T) {
	const rngSeed = 20171010
	seed, err := core.SyntheticSeed(serve.DefaultHosts, serve.DefaultSessions, rngSeed)
	if err != nil {
		t.Fatal(err)
	}
	spec := serve.Spec{Hosts: serve.DefaultHosts, Sessions: serve.DefaultSessions, Seed: rngSeed,
		Edges: 2_000_000, Format: serve.FormatCSBG}
	pgpbaSpec, pgskSpec := spec, spec
	pgpbaSpec.Generator, pgpbaSpec.Fraction = serve.GenPGPBA, 0.1
	pgskSpec.Generator = serve.GenPGSK
	series := []struct {
		name string
		s    degreeSeries
	}{
		{"seed", normalizedDegreeSeries(seed.Graph.Degrees())},
		{"PGPBA", normalizedDegreeSeries(servedGraph(t, pgpbaSpec).Degrees())},
		{"PGSK", normalizedDegreeSeries(servedGraph(t, pgskSpec).Degrees())},
	}

	rows := docTable(t, "## Figure 5")
	var want [][]string
	for _, e := range series {
		s := e.s
		want = append(want, []string{e.name,
			strconv.FormatInt(s.vertices, 10), strconv.Itoa(len(s.xs)),
			sci(s.xs[0], 2) + ".." + sci(s.xs[len(s.xs)-1], 2),
			sci(slices.Min(s.ys), 2) + ".." + sci(slices.Max(s.ys), 2),
			strconv.FormatFloat(s.slope(), 'f', 3, 64),
			strconv.Itoa(s.localMaxima()),
		})
	}
	if !slices.EqualFunc(rows[1:], want, slices.Equal) {
		t.Errorf("EXPERIMENTS.md Figure 5 table reads\n%v\nthe series give\n%v", rows[1:], want)
	}

	sd, ba, sk := series[0].s, series[1].s, series[2].s
	if !(ba.slope() < sd.slope() && sd.slope() < sk.slope() && sk.slope() < 0) {
		t.Errorf("slopes seed %.3f, PGPBA %.3f, PGSK %.3f: not PGPBA < seed < PGSK < 0", sd.slope(), ba.slope(), sk.slope())
	}
	orders := func(seedV, synV float64) int { return int(math.Floor(math.Log10(seedV / synV))) }
	for _, c := range []struct {
		name       string
		s          degreeSeries
		left, down int
	}{{"PGPBA", ba, 3, 2}, {"PGSK", sk, 1, 1}} {
		if l := orders(sd.xs[0], c.s.xs[0]); l != c.left {
			t.Errorf("%s sits %d orders of magnitude left of the seed, want %d", c.name, l, c.left)
		}
		if d := orders(slices.Min(sd.ys), slices.Min(c.s.ys)); d != c.down {
			t.Errorf("%s sits %d orders of magnitude below the seed, want %d", c.name, d, c.down)
		}
	}
	share := func(s degreeSeries) float64 { return float64(s.localMaxima()) / float64(len(s.xs)) }
	if sk.localMaxima() <= ba.localMaxima() || share(sk) >= share(ba) {
		t.Errorf("local maxima: PGSK %d of %d points, PGPBA %d of %d: want more for PGSK but a smaller share",
			sk.localMaxima(), len(sk.xs), ba.localMaxima(), len(ba.xs))
	}
}
