package bench

import (
	"math/rand/v2"

	"csb/internal/attack"
	"csb/internal/core"
	"csb/internal/ids"
	"csb/internal/netflow"
	"csb/internal/pso"
)

// ThresholdRow is one row of the Table I reproduction: parameter name,
// description and the trained/tuned value.
type ThresholdRow struct {
	Parameter   string
	Description string
	Trained     float64
	Tuned       float64
}

// Table1Result reproduces Table I: the anomaly-detection parameters with the
// thresholds obtained by training on attack-free traffic and by PSO tuning
// on a labeled scenario, plus the detection outcomes both achieve.
type Table1Result struct {
	Rows           []ThresholdRow
	TrainedOutcome attack.Outcome
	TunedOutcome   attack.Outcome
}

// Table1 builds a labeled attack scenario over background traffic derived
// from the seed graph, trains thresholds on clean traffic, tunes them with
// PSO, and reports the Table I parameter set with both detection outcomes.
func Table1(seed *core.Seed, rngSeed uint64) (*Table1Result, error) {
	background := netflow.FlowsFromGraph(seed.Graph)
	s := attack.NewScenario(background)
	rng := rand.New(rand.NewPCG(rngSeed, 0x7ab1e))
	var base int64
	for _, f := range background {
		if f.StartMicros > base {
			base = f.StartMicros
		}
	}
	victim := func(i uint32) uint32 {
		if seed.Graph.HasAddrs() {
			return seed.Graph.Addr(0) + i
		}
		return 0x0a000000 + i
	}
	s.InjectHostScan(rng, 0xbad00001, victim(2), 1500, base)
	s.InjectNetworkScan(rng, 0xbad00002, 0x0a010000, 200, 22, base)
	s.InjectSYNFlood(rng, victim(4), 80, 2500, base)
	s.InjectFlood(rng, 0xbad00003, victim(6), 2 /* udp */, 12, base)
	s.InjectDDoS(rng, victim(8), 80, 3, base)

	trained := ids.TrainThresholds(background, 0.99, 2)
	trainedDet := ids.NewDetector(trained)
	trainedOut := s.Score(trainedDet.Detect(s.Flows))

	tuned, tunedOut, err := attack.TuneThresholds(s, trained, pso.Config{
		Particles: 16, Iterations: 30, Seed: rngSeed,
	})
	if err != nil {
		return nil, err
	}

	rows := []ThresholdRow{
		{Parameter: "dip-T", Description: "max normal distinct destination IPs with same source IP", Trained: trained.DIPT, Tuned: tuned.DIPT},
		{Parameter: "sip-T", Description: "max normal distinct source IPs with same destination IP", Trained: trained.SIPT, Tuned: tuned.SIPT},
		{Parameter: "dp-LT", Description: "low bound on destination ports with same detection IP", Trained: trained.DPLT, Tuned: tuned.DPLT},
		{Parameter: "dp-HT", Description: "high bound on destination ports with same detection IP", Trained: trained.DPHT, Tuned: tuned.DPHT},
		{Parameter: "nf-T", Description: "max normal number of flows with same detection IP", Trained: trained.NFT, Tuned: tuned.NFT},
		{Parameter: "fs-LT", Description: "low bound on average flow size (bytes)", Trained: trained.FSLT, Tuned: tuned.FSLT},
		{Parameter: "fs-HT", Description: "high bound on total flow size (bytes)", Trained: trained.FSHT, Tuned: tuned.FSHT},
		{Parameter: "np-LT", Description: "low bound on average packet count", Trained: trained.NPLT, Tuned: tuned.NPLT},
		{Parameter: "np-HT", Description: "high bound on total packet count", Trained: trained.NPHT, Tuned: tuned.NPHT},
		{Parameter: "sa-T", Description: "min normal ACK/SYN ratio with same destination IP", Trained: trained.SAT, Tuned: tuned.SAT},
	}
	return &Table1Result{Rows: rows, TrainedOutcome: trainedOut, TunedOutcome: tunedOut}, nil
}
