package serve

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"csb/internal/graph"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	s := Spec{Edges: 1000}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Generator != GenPGPBA || s.Hosts != DefaultHosts || s.Sessions != DefaultSessions ||
		s.Fraction != DefaultFraction || s.Format != FormatTSV {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

func TestSpecNormalizeRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"zero edges", Spec{}, "edges"},
		{"negative edges", Spec{Edges: -5}, "edges"},
		{"unknown generator", Spec{Generator: "magic", Edges: 10}, "generator"},
		{"zero-excluded fraction", Spec{Generator: GenPGPBA, Edges: 10, Fraction: -0.5}, "fraction"},
		{"fraction above one", Spec{Generator: GenPGPBA, Edges: 10, Fraction: 1.5}, "fraction"},
		{"NaN fraction", Spec{Generator: GenPGPBA, Edges: 10, Fraction: math.NaN()}, "fraction"},
		{"negative hosts", Spec{Edges: 10, Hosts: -1}, "hosts"},
		{"negative sessions", Spec{Edges: 10, Sessions: -1}, "sessions"},
		{"unknown format", Spec{Edges: 10, Format: "xml"}, "format"},
	}
	for _, c := range cases {
		err := c.spec.Normalize()
		if err == nil {
			t.Errorf("%s accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestSpecIDStableAndDiscriminating(t *testing.T) {
	base := Spec{Generator: GenPGPBA, Edges: 5000, Seed: 7}
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	same := Spec{Generator: GenPGPBA, Edges: 5000, Seed: 7}
	if err := same.Normalize(); err != nil {
		t.Fatal(err)
	}
	if base.ID() != same.ID() {
		t.Fatal("identical specs produced different IDs")
	}
	if len(base.ID()) != 64 {
		t.Fatalf("ID %q is not a hex sha256", base.ID())
	}
	mutations := []Spec{
		{Generator: GenPGSK, Edges: 5000, Seed: 7},
		{Generator: GenPGPBA, Edges: 5001, Seed: 7},
		{Generator: GenPGPBA, Edges: 5000, Seed: 8},
		{Generator: GenPGPBA, Edges: 5000, Seed: 7, Fraction: 0.2},
		{Generator: GenPGPBA, Edges: 5000, Seed: 7, Hosts: 50},
		{Generator: GenPGPBA, Edges: 5000, Seed: 7, Format: FormatNDJSON},
	}
	for i, m := range mutations {
		if err := m.Normalize(); err != nil {
			t.Fatal(err)
		}
		if m.ID() == base.ID() {
			t.Errorf("mutation %d collided with the base ID", i)
		}
	}
}

func TestSpecIDIgnoresFractionForPGSK(t *testing.T) {
	// Fraction does not participate in PGSK generation, so it must not
	// split the cache for otherwise-identical jobs.
	a := Spec{Generator: GenPGSK, Edges: 1000, Seed: 3, Fraction: 0.4}
	b := Spec{Generator: GenPGSK, Edges: 1000, Seed: 3}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() {
		t.Fatal("PGSK artifact identity depends on the unused fraction")
	}
}

// TestArtifactFormat reads each encoder's real output back to its format;
// bytes that open with no format's signature read as unknown.
func TestArtifactFormat(t *testing.T) {
	plain := graph.New(3)
	plain.AddEdge(graph.Edge{Src: 0, Dst: 1, Props: graph.EdgeProps{Protocol: graph.ProtoTCP, DstPort: 80}})
	plain.AddEdge(graph.Edge{Src: 2, Dst: 1, Props: graph.EdgeProps{Protocol: graph.ProtoUDP, DstPort: 53}})
	hosts := graph.New(3)
	hosts.AddEdge(graph.Edge{Src: 1, Dst: 2, Props: graph.EdgeProps{Protocol: graph.ProtoTCP, DstPort: 22}})
	for v := range 3 {
		hosts.SetAddr(graph.VertexID(v), 0x0a000001+uint32(v))
	}
	encode := func(g *graph.Graph, format string) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := EncodeArtifact(&b, g, format); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	labeled := Spec{Scenario: tinyScenario()}
	if err := labeled.Normalize(); err != nil {
		t.Fatal(err)
	}
	csbf, err := BuildArtifact(context.Background(), labeled, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"tsv", encode(plain, FormatTSV), FormatTSV},
		{"csv", encode(plain, FormatCSV), FormatCSV},
		{"ndjson", encode(plain, FormatNDJSON), FormatNDJSON},
		{"csbg", encode(plain, FormatCSBG), FormatCSBG},
		{"csbg with addresses", encode(hosts, FormatCSBG), FormatCSBG},
		{"csbf", csbf, FormatCSBF},
		{"empty", nil, ""},
		{"garbage", []byte("\x00\x01not an artifact"), ""},
		{"truncated magic", []byte("CSB"), ""},
		{"tsv header prefix", []byte("src\tdst\n"), ""},
	} {
		if got := artifactFormat(c.data); got != c.want {
			t.Errorf("%s: format %q, want %q", c.name, got, c.want)
		}
	}
}
