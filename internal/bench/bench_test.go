package bench

import (
	"math"
	"testing"

	"csb/internal/cluster"
	"csb/internal/core"
	"csb/internal/netflow"
	"csb/internal/pcap"
)

func smallSeed(t testing.TB) *core.Seed {
	t.Helper()
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(30, 500, DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Analyze(netflow.BuildGraph(netflow.Assemble(pkts, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFig5Shapes(t *testing.T) {
	s := smallSeed(t)
	res, err := Fig5(s, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []Series{res.Seed, res.PGPBA, res.PGSK} {
		if len(series.Xs) == 0 || len(series.Xs) != len(series.Ys) {
			t.Fatalf("series %s empty or ragged", series.Name)
		}
		var mass float64
		for i, y := range series.Ys {
			if y <= 0 || y > 1 {
				t.Fatalf("series %s y[%d] = %g out of (0,1]", series.Name, i, y)
			}
			mass += y
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Fatalf("series %s mass = %g, want 1", series.Name, mass)
		}
	}
	// The synthetic graphs are larger, so normalization shifts their series
	// down-left: max normalized degree of the seed exceeds the synthetics'.
	maxX := func(s Series) float64 {
		m := 0.0
		for _, x := range s.Xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	if maxX(res.Seed) <= maxX(res.PGPBA) {
		t.Error("seed series not shifted right of PGPBA (normalization)")
	}
}

func TestSingleNodeThroughput(t *testing.T) {
	s := smallSeed(t)
	pts, err := SingleNodeThroughput(s, 20000, []int{1, 2}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Throughput <= 0 || p.Seconds <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
	}
}

func TestSizeSweepShapes(t *testing.T) {
	s := smallSeed(t)
	pts, err := SizeSweep(s, []int64{5000, 40000}, cluster.Config{Nodes: 4, CoresPerNode: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	byGen := map[string][]SizePoint{}
	for _, p := range pts {
		byGen[p.Generator] = append(byGen[p.Generator], p)
		if p.Seconds <= 0 || p.Throughput <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
		if p.BytesPerNode <= 0 {
			t.Fatalf("no memory accounting: %+v", p)
		}
	}
	for gen, ps := range byGen {
		// Figure 9 linearity: more edges take longer.
		if ps[1].Seconds <= ps[0].Seconds {
			t.Errorf("%s time not increasing with size: %+v", gen, ps)
		}
		// Figure 11: memory grows with size.
		if ps[1].BytesPerNode < ps[0].BytesPerNode {
			t.Errorf("%s memory decreased with size: %+v", gen, ps)
		}
	}
}

func TestStrongScalingSpeedup(t *testing.T) {
	s := smallSeed(t)
	// Size chosen so per-task work dwarfs scheduler/GC noise; tiny tasks
	// make the virtual makespan measurement meaningless.
	pts, err := StrongScaling(s, 800000, []int{2, 8}, 4, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for i := 0; i < len(pts); i += 2 {
		base, big := pts[i], pts[i+1]
		if base.Nodes != 2 || big.Nodes != 8 {
			t.Fatalf("node ordering wrong: %+v", pts)
		}
		if base.Speedup != 1 {
			t.Errorf("base speedup = %g, want 1", base.Speedup)
		}
		if big.Speedup <= 1 {
			t.Errorf("%s no speedup at 8 nodes: %+v", big.Generator, big)
		}
	}
	if _, err := StrongScaling(s, 100, nil, 4, 5, nil); err == nil {
		t.Error("empty node counts accepted")
	}
}

func TestTable1(t *testing.T) {
	s := smallSeed(t)
	res, err := Table1(s, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want the 10 Table I parameters", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Parameter == "" || r.Description == "" {
			t.Fatalf("incomplete row: %+v", r)
		}
	}
	if res.TunedOutcome.F1() < res.TrainedOutcome.F1() {
		t.Errorf("tuning degraded F1: %g -> %g", res.TrainedOutcome.F1(), res.TunedOutcome.F1())
	}
	if res.TunedOutcome.F1() < 0.6 {
		t.Errorf("tuned F1 = %g too low", res.TunedOutcome.F1())
	}
}

func TestBaselines(t *testing.T) {
	// The comparison needs a genuinely scale-free seed; the 30-host smoke
	// seed has no pronounced hub.
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(100, 2000, DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Analyze(netflow.BuildGraph(netflow.Assemble(pkts, 0)))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Baselines(s, 50000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6 models", len(pts))
	}
	scores := map[string]BaselinePoint{}
	for _, p := range pts {
		if p.Degree <= 0 || p.PageRank <= 0 {
			t.Fatalf("degenerate score: %+v", p)
		}
		scores[p.Model] = p
	}
	// Section II, made quantitative: in ER and WS "the probability of
	// finding a highly connected vertex decreases exponentially" — no
	// hubs, tail ratio near 1-2 — while scale-free models grow hubs.
	for _, baseline := range []string{"erdos-renyi", "watts-strogatz"} {
		if scores[baseline].TailRatio >= 3 {
			t.Errorf("%s grew a hub: tail ratio %g", baseline, scores[baseline].TailRatio)
		}
	}
	for _, model := range []string{"pgpba", "pgsk", "rmat", "chung-lu"} {
		if scores[model].TailRatio <= 3 {
			t.Errorf("%s has no hub: tail ratio %g", model, scores[model].TailRatio)
		}
	}
}

func TestExtendedVeracity(t *testing.T) {
	s := smallSeed(t)
	pts, err := ExtendedVeracity(s, 20000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	for _, p := range pts {
		if math.IsNaN(p.Betweenness) || p.Betweenness < 0 {
			t.Errorf("%s betweenness score invalid: %g", p.Generator, p.Betweenness)
		}
		// Trace graphs are dominated by one weak component; the synthetic
		// growth must keep that (the generators attach every new vertex).
		if p.GiantDelta > 0.2 {
			t.Errorf("%s giant-component fraction drifted by %g", p.Generator, p.GiantDelta)
		}
		if p.ClusteringDelta < 0 || p.ClusteringDelta > 1 {
			t.Errorf("%s clustering delta out of range: %g", p.Generator, p.ClusteringDelta)
		}
	}
}
