package attack

import (
	"csb/internal/ids"
	"csb/internal/pso"
)

// thresholdVector flattens Thresholds for the optimizer.
func thresholdVector(t ids.Thresholds) []float64 {
	return []float64{t.DIPT, t.SIPT, t.DPLT, t.DPHT, t.NFT, t.FSLT, t.FSHT, t.NPLT, t.NPHT, t.SAT}
}

func vectorThresholds(v []float64) ids.Thresholds {
	return ids.Thresholds{
		DIPT: v[0], SIPT: v[1], DPLT: v[2], DPHT: v[3], NFT: v[4],
		FSLT: v[5], FSHT: v[6], NPLT: v[7], NPHT: v[8], SAT: v[9],
	}
}

// TuneThresholds optimizes detection thresholds against a labeled scenario
// with PSO (the tuner the paper suggests), minimizing 1 - F1. The search
// box spans [base/8, base*8] around the starting thresholds.
func TuneThresholds(s *Scenario, base ids.Thresholds, cfg pso.Config) (ids.Thresholds, Outcome, error) {
	bv := thresholdVector(base)
	bounds := pso.Bounds{Lo: make([]float64, len(bv)), Hi: make([]float64, len(bv))}
	for i, b := range bv {
		if b <= 0 {
			b = 1
		}
		bounds.Lo[i] = b / 8
		bounds.Hi[i] = b * 8
	}
	// The ACK/SYN ratio is itself a ratio: keep it within (0, 1].
	bounds.Lo[9], bounds.Hi[9] = 0.01, 1

	// Only the thresholds change from one evaluation to the next: aggregate
	// the flows once and classify the same pattern tables each time.
	byDst, bySrc := ids.AggregatePatterns(s.Flows)
	det := ids.NewDetector(base)
	score := func(t ids.Thresholds) Outcome {
		det.T = t
		return s.Score(det.Classify(byDst, bySrc))
	}
	objective := func(v []float64) float64 {
		return 1 - score(vectorThresholds(v)).F1()
	}
	res, err := pso.Minimize(objective, bounds, cfg)
	if err != nil {
		return base, Outcome{}, err
	}
	// Never regress below the starting thresholds: the swarm may miss the
	// base point when it is already (near) optimal.
	baseOut := score(base)
	tuned := vectorThresholds(res.Position)
	tunedOut := score(tuned)
	if baseOut.F1() >= tunedOut.F1() {
		return base, baseOut, nil
	}
	return tuned, tunedOut, nil
}
