package eval

import (
	"fmt"

	"csb/internal/attack"
	"csb/internal/graph"
	"csb/internal/ids"
	"csb/internal/netflow"
	"csb/internal/pso"
	"csb/internal/scenario"
)

// UtilityConfig parameterizes the utility metric. The zero value is not
// runnable; GridSpec.Normalize fills the defaults (see grid.go), and
// NormalizeUtility does the same for direct callers.
type UtilityConfig struct {
	// Attacks is the labeled injection mix shared by the synthetic and the
	// held-out scenario; empty selects DefaultUtilityAttacks.
	Attacks []scenario.Attack `json:"attacks,omitempty"`
	// HeldOutSeed drives the held-out scenario's RNG streams. It must
	// differ from every grid generation seed, or the "held-out" set is the
	// training set; GridSpec.Normalize rejects a grid where it does not.
	HeldOutSeed uint64 `json:"heldout_seed,omitempty"`
	// HeldOutHosts and HeldOutSessions size the held-out seed-derived trace
	// background.
	HeldOutHosts    int `json:"heldout_hosts,omitempty"`
	HeldOutSessions int `json:"heldout_sessions,omitempty"`
	// GapMicros spaces the synthetic background timeline.
	GapMicros int64 `json:"gap_micros,omitempty"`
	// Particles and Iterations size the PSO threshold search. The defaults
	// (8, 12) keep one tune under a second on laptop-scale scenarios; the
	// grid multiplies tunes by cells, so these are deliberately small.
	Particles  int `json:"particles,omitempty"`
	Iterations int `json:"iterations,omitempty"`
}

// Utility defaults.
const (
	DefaultHeldOutSeed     = 104729 // the 10000th prime
	DefaultHeldOutHosts    = 60
	DefaultHeldOutSessions = 1200
	DefaultGapMicros       = 1000
	DefaultParticles       = 8
	DefaultIterations      = 12
)

// DefaultUtilityAttacks is the injection mix used when a spec names none:
// one attack per alert family, on distinct victims and staggered start
// times so each produces its own per-IP aggregate pattern (attacks stacked
// on one victim melt into a single DDoS-shaped pattern and the scan/flood
// labels become undetectable, flattening the metric).
func DefaultUtilityAttacks() []scenario.Attack {
	return []scenario.Attack{
		{Type: scenario.TypeHostScan, StartMS: 5_000, Count: 1500, Victim: 0x0a000003},
		{Type: scenario.TypeNetworkScan, StartMS: 65_000, Count: 150, Port: 22},
		{Type: scenario.TypeSYNFlood, StartMS: 125_000, Count: 2500, Victim: 0x0a000005, Port: 80},
		{Type: scenario.TypeDDoS, StartMS: 185_000, Count: 80, FlowsPerSource: 3, Victim: 0x0a000009},
	}
}

// NormalizeUtility fills defaults and validates the attack list through the
// scenario layer's shared normalization (the held-out spec below), so a
// malformed attack fails here, once, not inside every grid cell.
func NormalizeUtility(u *UtilityConfig) error {
	if len(u.Attacks) == 0 {
		u.Attacks = DefaultUtilityAttacks()
	}
	if u.HeldOutSeed == 0 {
		u.HeldOutSeed = DefaultHeldOutSeed
	}
	if u.HeldOutHosts == 0 {
		u.HeldOutHosts = DefaultHeldOutHosts
	}
	if u.HeldOutSessions == 0 {
		u.HeldOutSessions = DefaultHeldOutSessions
	}
	if u.GapMicros == 0 {
		u.GapMicros = DefaultGapMicros
	}
	if u.GapMicros < 0 {
		return fmt.Errorf("eval: utility gap_micros must be positive, got %d", u.GapMicros)
	}
	if u.Particles == 0 {
		u.Particles = DefaultParticles
	}
	if u.Iterations == 0 {
		u.Iterations = DefaultIterations
	}
	sp := u.heldOutSpec()
	if err := sp.Normalize(); err != nil {
		return err
	}
	u.Attacks = sp.Attacks // keep the normalized attack list
	return nil
}

// heldOutSpec is the seed-derived (trace-background) scenario the tuned
// detector is scored on.
func (u *UtilityConfig) heldOutSpec() *scenario.Spec {
	return &scenario.Spec{
		Seed: u.HeldOutSeed,
		Background: scenario.Background{
			Source:   scenario.SourceTrace,
			Hosts:    u.HeldOutHosts,
			Sessions: u.HeldOutSessions,
		},
		Attacks: append([]scenario.Attack(nil), u.Attacks...),
	}
}

// UtilityReport is the utility half of a grid cell: how well a detector
// tuned on the cell's synthetic data transfers to held-out seed-derived
// data. All F1 values are measured on the held-out scenario.
type UtilityReport struct {
	BaseF1      float64 `json:"base_f1"`      // untuned default thresholds
	SyntheticF1 float64 `json:"synthetic_f1"` // tuned on the synthetic scenario
	NativeF1    float64 `json:"native_f1"`    // tuned on the held-out scenario itself
	// UtilityGap is NativeF1 - SyntheticF1: what tuning on synthetic
	// instead of real data costs. 0 means the synthetic data is as useful
	// as the real thing for this detector; larger is worse.
	UtilityGap float64 `json:"utility_gap"`
}

// Utility computes the utility metric of one synthetic graph: inject
// cfg.Attacks into the graph's projected flows (tuning set), tune the
// detector's thresholds there with PSO seeded by tuneSeed, and score the
// tuned thresholds on the held-out seed-derived scenario. The native
// baseline tunes directly on the held-out scenario with the same swarm
// budget. cfg must have passed NormalizeUtility.
func Utility(g *graph.Graph, cfg *UtilityConfig, tuneSeed uint64) (*UtilityReport, error) {
	// Tuning set: the synthetic graph's flows on a synthetic timeline, with
	// the shared attack mix injected on streams derived from tuneSeed.
	flows := netflow.FlowsFromGraph(g)
	scenario.SyntheticTimeline(flows, cfg.GapMicros)
	syn := attack.NewScenario(flows)
	if err := scenario.ApplyAttacks(syn, tuneSeed, cfg.Attacks); err != nil {
		return nil, fmt.Errorf("eval: building synthetic scenario: %w", err)
	}
	syn.Finish()

	held, err := scenario.Compile(cfg.heldOutSpec(), nil)
	if err != nil {
		return nil, fmt.Errorf("eval: compiling held-out scenario: %w", err)
	}

	base := ids.DefaultThresholds()
	psoCfg := pso.Config{Particles: cfg.Particles, Iterations: cfg.Iterations, Seed: tuneSeed}
	tuned, _, err := attack.TuneThresholds(syn, base, psoCfg)
	if err != nil {
		return nil, fmt.Errorf("eval: tuning on synthetic: %w", err)
	}
	psoCfg.Seed = cfg.HeldOutSeed
	_, nativeOut, err := attack.TuneThresholds(held, base, psoCfg)
	if err != nil {
		return nil, fmt.Errorf("eval: tuning on held-out: %w", err)
	}

	r := &UtilityReport{
		BaseF1:      held.Score(ids.NewDetector(base).Detect(held.Flows)).F1(),
		SyntheticF1: held.Score(ids.NewDetector(tuned).Detect(held.Flows)).F1(),
		NativeF1:    nativeOut.F1(),
	}
	r.UtilityGap = r.NativeF1 - r.SyntheticF1
	return r, nil
}
