package scenario

import (
	"fmt"
	"math/rand/v2"

	"csb/internal/attack"
	"csb/internal/cluster"
	"csb/internal/core"
	"csb/internal/netflow"
	"csb/internal/pcap"
)

// TimelineBase anchors every scenario timeline: attack start_ms offsets are
// relative to it, and generator backgrounds (which project timeline-free
// flows) synthesize their start times from it. It equals the synthetic
// trace's capture date (pcap.DefaultTraceConfig.StartMicros), so trace
// backgrounds and attack offsets share one clock.
const TimelineBase = int64(1318204800 * 1e6)

// Compile builds the labeled flow set a normalized spec describes:
// background flows from the selected source, each attack injected on its
// own RNG stream derived from (spec seed, attack seed), and a final
// canonical re-sort (Scenario.Finish) so the mixed timeline is in the exact
// order Assembler.Finish would emit. Generator backgrounds run on c (nil
// means a default local cluster), so a chaos-configured cluster exercises
// the fault model without changing the output — same spec + seed ⇒ the
// same labeled flows, bit for bit, on any host, at any cluster shape and
// under any fault schedule.
func Compile(sp *Spec, c *cluster.Cluster) (*attack.Scenario, error) {
	bg, err := background(sp, c)
	if err != nil {
		return nil, err
	}
	sc := attack.NewScenario(bg)
	if err := ApplyAttacks(sc, sp.Seed, sp.Attacks); err != nil {
		return nil, err
	}
	sc.Finish()
	return sc, nil
}

// ApplyAttacks injects every normalized attack into sc, each on its own RNG
// stream derived from (specSeed, attack seed) — the injection half of
// Compile, exported so the eval harness can mix the same attack list into a
// background it generated itself (a grid cell's synthetic flows). The
// caller must call sc.Finish() after the last injection.
func ApplyAttacks(sc *attack.Scenario, specSeed uint64, attacks []Attack) error {
	for i := range attacks {
		a := &attacks[i]
		rng := rand.New(rand.NewPCG(specSeed, a.Seed))
		ts := TimelineBase + a.StartMS*1000
		switch a.Type {
		case TypeHostScan:
			sc.InjectHostScan(rng, a.Attacker, a.Victim, a.Count, ts)
		case TypeNetworkScan:
			sc.InjectNetworkScan(rng, a.Attacker, a.Victim, a.Count, a.Port, ts)
		case TypeSYNFlood:
			sc.InjectSYNFlood(rng, a.Victim, a.Port, a.Count, ts)
		case TypeFlood:
			proto, err := floodProto(a.Proto)
			if err != nil {
				return fmt.Errorf("scenario: attack %d: %w", i, err)
			}
			sc.InjectFlood(rng, a.Attacker, a.Victim, proto, a.Count, ts)
		case TypeDDoS:
			sc.InjectDDoS(rng, a.Victim, a.Count, a.FlowsPerSource, ts)
		default:
			return fmt.Errorf("scenario: attack %d: unknown type %q (spec not normalized?)", i, a.Type)
		}
	}
	return nil
}

// background builds the benign flow set of the spec's background source.
func background(sp *Spec, c *cluster.Cluster) ([]netflow.Flow, error) {
	b := &sp.Background
	if b.Source == SourceTrace {
		pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(b.Hosts, b.Sessions, sp.Seed))
		if err != nil {
			return nil, fmt.Errorf("scenario: synthesizing trace: %w", err)
		}
		return netflow.Assemble(pkts, 0), nil
	}

	// Generator background: the trace becomes the seed graph, generation
	// runs on the cluster (fault model and all), and the projected flows get
	// a synthetic timeline — FlowsFromGraph emits StartMicros 0 for every
	// flow, which the replay pacer and windowed detector cannot use.
	seed, err := core.SyntheticSeed(b.Hosts, b.Sessions, sp.Seed)
	if err != nil {
		return nil, fmt.Errorf("scenario: building seed: %w", err)
	}
	gen, err := core.NewGenerator(b.Source, b.Fraction, sp.Seed, c)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w (spec not normalized?)", err)
	}
	g, err := gen.Generate(seed, b.Edges)
	if err != nil {
		return nil, fmt.Errorf("scenario: generating background: %w", err)
	}
	out := netflow.FlowsFromGraph(g)
	SyntheticTimeline(out, b.GapMicros)
	return out, nil
}

// SyntheticTimeline anchors timeline-free flows (graph projections emit
// StartMicros 0, which neither the replay pacer nor the windowed detector
// can use) on the scenario clock: flow i starts at TimelineBase + i*gap,
// keeping its projected duration (a pre-timeline EndMicros, clamped to at
// least 1ms).
func SyntheticTimeline(flows []netflow.Flow, gapMicros int64) {
	for i := range flows {
		duration := flows[i].EndMicros // pre-timeline EndMicros is the duration
		if duration <= 0 {
			duration = 1000
		}
		flows[i].StartMicros = TimelineBase + int64(i)*gapMicros
		flows[i].EndMicros = flows[i].StartMicros + duration
	}
}
