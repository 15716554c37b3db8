package attack_test

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csb/internal/attack"
	"csb/internal/core"
	"csb/internal/ids"
	"csb/internal/netflow"
	"csb/internal/pso"
)

// TestTable1 reproduces Table I on the seed trace EXPERIMENTS.md names (100
// hosts, 2,000 sessions, seed 20171010): thresholds trained on the
// attack-free background (q = 0.99, margin 2) and tuned by PSO on a
// scenario with one attack of each class. Every trained and tuned threshold
// and both detection outcomes are what the "Table I" section of
// EXPERIMENTS.md prints, and tuning does not lower F1.
func TestTable1(t *testing.T) {
	const rngSeed = 20171010
	seed, err := core.SyntheticSeed(100, 2000, rngSeed)
	if err != nil {
		t.Fatal(err)
	}
	background := netflow.FlowsFromGraph(seed.Graph)
	s := attack.NewScenario(background)
	rng := rand.New(rand.NewPCG(rngSeed, 0x7ab1e))
	var base int64
	for _, f := range background {
		base = max(base, f.StartMicros)
	}
	victim := func(i uint32) uint32 { return seed.Graph.Addr(0) + i }
	s.InjectHostScan(rng, 0xbad00001, victim(2), 1500, base)
	s.InjectNetworkScan(rng, 0xbad00002, 0x0a010000, 200, 22, base)
	s.InjectSYNFlood(rng, victim(4), 80, 2500, base)
	s.InjectFlood(rng, 0xbad00003, victim(6), 2 /* udp */, 12, base)
	s.InjectDDoS(rng, victim(8), 80, 3, base)

	trained := ids.TrainThresholds(background, 0.99, 2)
	trainedOut := s.Score(ids.NewDetector(trained).Detect(s.Flows))
	tuned, tunedOut, err := attack.TuneThresholds(s, trained, pso.Config{
		Particles: 16, Iterations: 30, Seed: rngSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tunedOut.F1() < trainedOut.F1() {
		t.Errorf("tuning lowered F1: %.3f -> %.3f", trainedOut.F1(), tunedOut.F1())
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## Table I")
	section, _, _ = strings.Cut(section, "\n## ")
	outcome := func(label string, o attack.Outcome) string {
		return fmt.Sprintf("| %s | %d | %d | %d | %.3f |\n", label, o.TruePositives, o.FalsePositives, o.FalseNegatives, o.F1())
	}
	want := []string{
		outcome("trained (q=0.99, margin 2)", trainedOut),
		outcome("PSO-tuned", tunedOut),
	}
	for _, p := range []struct {
		name           string
		trained, tuned float64
	}{
		{"dip-T", trained.DIPT, tuned.DIPT}, {"sip-T", trained.SIPT, tuned.SIPT},
		{"dp-LT", trained.DPLT, tuned.DPLT}, {"dp-HT", trained.DPHT, tuned.DPHT},
		{"nf-T", trained.NFT, tuned.NFT},
		{"fs-LT", trained.FSLT, tuned.FSLT}, {"fs-HT", trained.FSHT, tuned.FSHT},
		{"np-LT", trained.NPLT, tuned.NPLT}, {"np-HT", trained.NPHT, tuned.NPHT},
		{"sa-T", trained.SAT, tuned.SAT},
	} {
		want = append(want, fmt.Sprintf("\n| %s | %.2f | %.2f |", p.name, p.trained, p.tuned))
	}
	for _, row := range want {
		if !strings.Contains(section, row) {
			t.Errorf("EXPERIMENTS.md Table I has no row %q", strings.TrimSpace(row))
		}
	}
}
