package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csb/internal/cluster"
	"csb/internal/core"
)

func buildSeed(t *testing.T, hosts, sessions int, rngSeed uint64) *core.Seed {
	t.Helper()
	seed, err := core.SyntheticSeed(hosts, sessions, rngSeed)
	if err != nil {
		t.Fatal(err)
	}
	return seed
}

func TestParseHelpers(t *testing.T) {
	if got := parseInt64s("1,2, 3"); len(got) != 3 || got[2] != 3 {
		t.Fatalf("parseInt64s = %v", got)
	}
	if got := parseInt64s(""); len(got) != 0 {
		t.Fatalf("empty parse = %v", got)
	}
	if got := parseInts("10,20"); len(got) != 2 || got[1] != 20 {
		t.Fatalf("parseInts = %v", got)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestSingleNodeThroughput(t *testing.T) {
	s := buildSeed(t, 30, 500, defaultSeed)
	pts, err := singleNodeThroughput(s, 20000, []int{1, 2}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.throughput <= 0 || p.seconds <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
	}
}

func TestSizeSweepShapes(t *testing.T) {
	s := buildSeed(t, 30, 500, defaultSeed)
	pts, err := sizeSweep(s, []int64{5000, 40000}, cluster.Config{Nodes: 4, CoresPerNode: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	byGen := map[string][]sizePoint{}
	for _, p := range pts {
		byGen[p.generator] = append(byGen[p.generator], p)
		if p.seconds <= 0 || p.throughput <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
		if p.bytesPerNode <= 0 {
			t.Fatalf("no memory accounting: %+v", p)
		}
	}
	for gen, ps := range byGen {
		// Figure 9 linearity: more edges take longer.
		if ps[1].seconds <= ps[0].seconds {
			t.Errorf("%s time not increasing with size: %+v", gen, ps)
		}
		// Figure 11: memory grows with size.
		if ps[1].bytesPerNode < ps[0].bytesPerNode {
			t.Errorf("%s memory decreased with size: %+v", gen, ps)
		}
	}
}

func TestStrongScalingSpeedup(t *testing.T) {
	s := buildSeed(t, 30, 500, defaultSeed)
	// Size chosen so per-task work dwarfs scheduler/GC noise; tiny tasks
	// make the virtual makespan measurement meaningless.
	pts, err := strongScaling(s, 800000, []int{2, 8}, 4, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for i := 0; i < len(pts); i += 2 {
		base, big := pts[i], pts[i+1]
		if base.nodes != 2 || big.nodes != 8 {
			t.Fatalf("node ordering wrong: %+v", pts)
		}
		if base.speedup != 1 {
			t.Errorf("base speedup = %g, want 1", base.speedup)
		}
		if big.speedup <= 1 {
			t.Errorf("%s no speedup at 8 nodes: %+v", big.generator, big)
		}
	}
	if _, err := strongScaling(s, 100, nil, 4, 5, nil); err == nil {
		t.Error("empty node counts accepted")
	}
}

// TestBaselines runs -exp baselines at the size and seed EXPERIMENTS.md
// names (500k edges; seed trace of 100 hosts, 2,000 sessions at seed
// 20171010) through the command's printing path, and checks that the
// section's table is what it prints and that the section's sentences hold:
// the structure-free models have no hubs (tail ratio ≤ 2), every scale-free
// model grows them, Chung-Lu and PGSK have the two smallest degree KS, and
// PGPBA's is the largest of the scale-free models'.
func TestBaselines(t *testing.T) {
	seed := buildSeed(t, 100, 2000, defaultSeed)
	out := captureStdout(t, func() { printBaselines(seed, 500000, defaultSeed) })
	var table strings.Builder
	ks := map[string]float64{}
	tail := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[2:] {
		var model string
		var edges int64
		var deg, pr, k, r float64
		if _, err := fmt.Sscanf(line, "%s\t%d\t%g\t%g\t%g\t%g", &model, &edges, &deg, &pr, &k, &r); err != nil {
			t.Fatalf("baselines line %q: %v", line, err)
		}
		f := strings.Split(line, "\t")
		fmt.Fprintf(&table, "| %s | %s | %s |\n", model, f[4], f[5])
		ks[model], tail[model] = k, r
	}
	if len(ks) != 6 {
		t.Fatalf("baselines printed %d models, want 6:\n%s", len(ks), out)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## Extension — baseline model comparison")
	section, _, _ = strings.Cut(section, "\n## ")
	if !strings.Contains(section, table.String()) {
		t.Errorf("EXPERIMENTS.md's baseline table is not what -exp baselines prints; want rows\n%s", table.String())
	}

	for _, m := range []string{"erdos-renyi", "watts-strogatz"} {
		if tail[m] > 2 {
			t.Errorf("%s grew a hub: tail ratio %g", m, tail[m])
		}
	}
	for _, m := range []string{"chung-lu", "rmat", "pgpba", "pgsk"} {
		if tail[m] <= 2 {
			t.Errorf("%s has no hub: tail ratio %g", m, tail[m])
		}
		if m != "pgpba" && ks[m] >= ks["pgpba"] {
			t.Errorf("%s degree KS %g is not below PGPBA's %g", m, ks[m], ks["pgpba"])
		}
	}
	for m, k := range ks {
		if m != "chung-lu" && m != "pgsk" && (k <= ks["chung-lu"] || k <= ks["pgsk"]) {
			t.Errorf("%s degree KS %g is not above Chung-Lu's %g and PGSK's %g", m, k, ks["chung-lu"], ks["pgsk"])
		}
	}
}
