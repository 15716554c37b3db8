package scenario

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"csb/internal/attack"
	"csb/internal/cluster"
	"csb/internal/replay"
)

// testSpec is a small mixed scenario on a trace background.
func testSpec() *Spec {
	return &Spec{
		Seed: 7,
		Background: Background{
			Source: SourceTrace, Hosts: 40, Sessions: 600,
		},
		Attacks: []Attack{
			{Type: TypeHostScan, StartMS: 10_000, Count: 1500, Attacker: 0xbad00001, Victim: 0x0a000003},
			{Type: TypeSYNFlood, StartMS: 60_000, Count: 2500, Victim: 0x0a000005, Port: 80},
			{Type: TypeDDoS, StartMS: 120_000, Count: 40, FlowsPerSource: 3, Victim: 0x0a000009},
		},
	}
}

func mustNormalize(t *testing.T, sp *Spec) *Spec {
	t.Helper()
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestParseNormalizesDefaults(t *testing.T) {
	sp, err := Parse(strings.NewReader(`{"seed": 3, "attacks": [{"type": "host-scan"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	b := sp.Background
	if b.Source != SourceTrace || b.Hosts != DefaultHosts || b.Sessions != DefaultSessions {
		t.Fatalf("background defaults = %+v", b)
	}
	a := sp.Attacks[0]
	if a.Seed != 1 || a.Count == 0 || a.Attacker != DefaultAttacker || a.Victim != DefaultVictim {
		t.Fatalf("attack defaults = %+v", a)
	}
}

func TestNormalizeRejectsInvalid(t *testing.T) {
	cases := []Spec{
		{Attacks: []Attack{{Type: "teardrop"}}},
		{Attacks: []Attack{{Type: TypeHostScan, Count: 70_000}}},
		{Attacks: []Attack{{Type: TypeHostScan, StartMS: -1}}},
		{Attacks: []Attack{{Type: TypeFlood, Proto: "gre"}}},
		{Attacks: nil},
		{Background: Background{Source: "pcap"}, Attacks: []Attack{{Type: TypeDDoS}}},
		{Background: Background{Hosts: -1}, Attacks: []Attack{{Type: TypeDDoS}}},
		{Background: Background{Source: SourcePGPBA, Fraction: 1.5}, Attacks: []Attack{{Type: TypeDDoS}}},
	}
	for i := range cases {
		if err := cases[i].Normalize(); err == nil {
			t.Errorf("case %d: invalid spec normalized: %+v", i, cases[i])
		}
	}
}

func TestNormalizeZeroesUnusedFields(t *testing.T) {
	sp := mustNormalize(t, &Spec{Attacks: []Attack{
		{Type: TypeSYNFlood, Attacker: 99, Proto: "udp", FlowsPerSource: 9},
	}})
	a := sp.Attacks[0]
	if a.Attacker != 0 || a.Proto != "" || a.FlowsPerSource != 0 {
		t.Fatalf("syn-flood kept unused fields: %+v", a)
	}
	// Trace backgrounds must not keep generator knobs.
	sp2 := mustNormalize(t, &Spec{
		Background: Background{Edges: 5000, Fraction: 0.5, GapMicros: 7},
		Attacks:    []Attack{{Type: TypeDDoS}},
	})
	if b := sp2.Background; b.Edges != 0 || b.Fraction != 0 || b.GapMicros != 0 {
		t.Fatalf("trace background kept generator knobs: %+v", b)
	}
}

func TestSpecIDStableAndDiscriminating(t *testing.T) {
	a := mustNormalize(t, testSpec())
	b := mustNormalize(t, testSpec())
	if a.ID() != b.ID() {
		t.Fatal("identical specs got different IDs")
	}
	// Unused fields zeroed by Normalize must not differentiate.
	c := testSpec()
	c.Attacks[1].Attacker = 0xffff
	mustNormalize(t, c)
	if c.ID() != a.ID() {
		t.Fatal("normalized-away field changed the ID")
	}
	for _, mutate := range []func(*Spec){
		func(s *Spec) { s.Seed = 8 },
		func(s *Spec) { s.Background.Hosts = 41 },
		func(s *Spec) { s.Attacks[0].Count = 1501 },
		func(s *Spec) { s.Attacks[0].StartMS = 10_001 },
		func(s *Spec) { s.Attacks = s.Attacks[:2] },
		func(s *Spec) { s.Attacks[2].FlowsPerSource = 4 },
	} {
		m := testSpec()
		mutate(m)
		mustNormalize(t, m)
		if m.ID() == a.ID() {
			t.Fatalf("mutation did not change the ID: %+v", m)
		}
	}
}

func TestCompileDeterministicByteIdentical(t *testing.T) {
	sc1, err := Compile(mustNormalize(t, testSpec()), nil)
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := Compile(mustNormalize(t, testSpec()), nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := EncodeLabeled(sc1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeLabeled(sc2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same spec compiled to different artifact bytes")
	}
}

func TestCompileProducesFinishedLabeledScenario(t *testing.T) {
	sc, err := Compile(mustNormalize(t, testSpec()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Labels) != 3 {
		t.Fatalf("labels = %d, want 3", len(sc.Labels))
	}
	if len(sc.FlowAttack) != len(sc.Flows) {
		t.Fatalf("FlowAttack len %d != Flows len %d", len(sc.FlowAttack), len(sc.Flows))
	}
	for i := 1; i < len(sc.Flows); i++ {
		if sc.Flows[i].StartMicros < sc.Flows[i-1].StartMicros {
			t.Fatalf("compiled flows not in start order at %d", i)
		}
	}
	counts := map[int32]int{}
	for _, a := range sc.FlowAttack {
		counts[a]++
	}
	if counts[0] != 1500 || counts[1] != 2500 || counts[2] != 120 {
		t.Fatalf("per-attack flow counts = %v", counts)
	}
	if counts[attack.BackgroundFlow] == 0 {
		t.Fatal("no background flows")
	}
}

func TestGeneratorBackgroundTimelineAndDeterminismAcrossClusters(t *testing.T) {
	spec := func() *Spec {
		return mustNormalize(t, &Spec{
			Seed: 9,
			Background: Background{
				Source: SourcePGPBA, Hosts: 30, Sessions: 400, Edges: 3000,
			},
			Attacks: []Attack{
				{Type: TypeHostScan, StartMS: 1000, Count: 400},
			},
		})
	}
	// The shape is placement, so determinism is asserted across shapes, real
	// parallelism and chaos at once.
	shape := func(nodes, cores, maxParallel int, faults *cluster.FaultPlan) *cluster.Cluster {
		return cluster.MustNew(cluster.Config{
			Nodes: nodes, CoresPerNode: cores, MaxParallel: maxParallel, Faults: faults,
		})
	}
	var ref []byte
	for name, c := range map[string]*cluster.Cluster{
		"1x1 p1":    shape(1, 1, 1, nil),
		"1x4 p16":   shape(1, 4, 16, nil),
		"4x4 chaos": shape(4, 4, 4, cluster.NewFaultPlan(3, 0.2)),
	} {
		sc, err := Compile(spec(), c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := EncodeLabeled(sc)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = data
			// The synthetic timeline must be usable: strictly within the
			// background span, gap-spaced from the base.
			bg := 0
			for i, a := range sc.FlowAttack {
				if a == attack.BackgroundFlow && sc.Flows[i].StartMicros < TimelineBase {
					t.Fatalf("background flow %d starts before the timeline base", i)
				} else if a == attack.BackgroundFlow {
					bg++
				}
			}
			// PGPBA grows in rounds, so it may overshoot the target slightly.
			if bg < 3000 {
				t.Fatalf("background flows = %d, want >= 3000", bg)
			}
			continue
		}
		if !bytes.Equal(ref, data) {
			t.Fatalf("%s: artifact bytes differ across clusters", name)
		}
	}
}

// TestArtifactFlowSectionSorted: every attack type, on every background
// source, compiles to an artifact whose flow section passes
// replay.CheckRecords. csbd streams a cached labeled artifact's flow section
// without scanning it, on the strength of this order.
func TestArtifactFlowSectionSorted(t *testing.T) {
	attacks := []Attack{
		{Type: TypeHostScan, StartMS: 2_000, Count: 300},
		{Type: TypeNetworkScan, StartMS: 2_000, Count: 60},
		{Type: TypeSYNFlood, StartMS: 2_000, Count: 300},
		{Type: TypeFlood, StartMS: 2_000, Count: 200, Proto: "tcp"},
		{Type: TypeFlood, StartMS: 2_000, Count: 200, Proto: "udp"},
		{Type: TypeFlood, StartMS: 2_000, Count: 200, Proto: "icmp"},
		{Type: TypeDDoS, StartMS: 2_000, Count: 20, FlowsPerSource: 4},
	}
	for _, src := range []string{SourceTrace, SourcePGPBA, SourcePGSK} {
		for _, a := range attacks {
			sp := mustNormalize(t, &Spec{
				Seed:       5,
				Background: Background{Source: src, Hosts: 20, Sessions: 200, Edges: 1500},
				Attacks:    []Attack{a},
			})
			sc, err := Compile(sp, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", src, a.Type, err)
			}
			data, err := EncodeLabeled(sc)
			if err != nil {
				t.Fatal(err)
			}
			slab, err := replay.FlowSection(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := replay.CheckRecords(slab); err != nil {
				t.Errorf("%s/%s %s: %v", src, a.Type, a.Proto, err)
			}
		}
	}
}

func TestLabeledArtifactRoundTrip(t *testing.T) {
	sc, err := Compile(mustNormalize(t, testSpec()), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeLabeled(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLabeled(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Flows) != len(sc.Flows) || len(got.Labels) != len(sc.Labels) {
		t.Fatalf("round trip: %d flows %d labels, want %d/%d",
			len(got.Flows), len(got.Labels), len(sc.Flows), len(sc.Labels))
	}
	for i := range sc.Flows {
		if got.Flows[i] != sc.Flows[i] {
			t.Fatalf("flow %d changed across the round trip", i)
		}
		if got.FlowAttack[i] != sc.FlowAttack[i] {
			t.Fatalf("flow %d label index changed across the round trip", i)
		}
	}
	for i := range sc.Labels {
		if got.Labels[i] != sc.Labels[i] {
			t.Fatalf("label %d changed across the round trip", i)
		}
	}
	// A labeled artifact is also a valid plain CSBF1 flow artifact: the
	// label section trails the counted records and must be ignored.
	flows, err := replay.ReadFlowFile(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("plain CSBF1 read of labeled artifact: %v", err)
	}
	if len(flows) != len(sc.Flows) {
		t.Fatalf("plain read got %d flows, want %d", len(flows), len(sc.Flows))
	}
	// And the flow section is exactly EncodeFlows — the bytes a gap-free
	// replay subscriber reassembles.
	section := data[replay.FlowFileHeaderLen : replay.FlowFileHeaderLen+len(sc.Flows)*replay.FlowRecordLen]
	if !bytes.Equal(section, replay.EncodeFlows(sc.Flows)) {
		t.Fatal("flow section differs from EncodeFlows")
	}
}

func TestReadLabelsTypedErrors(t *testing.T) {
	sc, err := Compile(mustNormalize(t, testSpec()), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLabels(&buf, sc); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(name string, mutate func(b []byte)) {
		t.Helper()
		b := append([]byte(nil), good...)
		mutate(b)
		if _, _, err := ReadLabels(bytes.NewReader(b)); !errors.Is(err, ErrCorruptLabels) {
			t.Errorf("%s: err = %v, want ErrCorruptLabels", name, err)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] = 'X' })
	corrupt("bad record len", func(b []byte) { b[7] = 13 })
	corrupt("label count > flow count", func(b []byte) { b[8] = 0xff })
	corrupt("unknown attack type", func(b []byte) { b[LabelHeaderLen] = 99 })
	corrupt("background type in label", func(b []byte) { b[LabelHeaderLen] = 0 })
	corrupt("index out of range", func(b []byte) {
		off := LabelHeaderLen + len(sc.Labels)*LabelRecordLen
		b[off], b[off+1], b[off+2], b[off+3] = 0, 0, 0, 200
	})

	// Truncation is not corruption: every cut surfaces as EOF-family.
	for _, cut := range []int{0, 5, LabelHeaderLen - 1, LabelHeaderLen + 3, len(good) - 2} {
		_, _, err := ReadLabels(bytes.NewReader(good[:cut]))
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: err = %v, want EOF family", cut, err)
		}
		if errors.Is(err, ErrCorruptLabels) {
			t.Errorf("cut at %d misreported as corruption: %v", cut, err)
		}
	}
}

func TestDecodeLabeledCrossChecksCounts(t *testing.T) {
	sc, err := Compile(mustNormalize(t, testSpec()), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeLabeled(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Claim one fewer flow in the label section than the flow section has.
	off := replay.FlowFileHeaderLen + len(sc.Flows)*replay.FlowRecordLen
	b := append([]byte(nil), data...)
	n := uint64(len(sc.Flows) - 1)
	for i := 0; i < 8; i++ {
		b[off+16+i] = byte(n >> (56 - 8*i))
	}
	// Drop the final flow-attack entry so the section is self-consistent.
	b = b[:len(b)-4]
	if _, err := DecodeLabeled(b); !errors.Is(err, ErrCorruptLabels) {
		t.Fatalf("mismatched counts: err = %v, want ErrCorruptLabels", err)
	}
}
