package core

import (
	"bytes"
	"strings"
	"testing"

	"csb/internal/stats"
)

func TestSeedWriteReadRoundTrip(t *testing.T) {
	s := traceSeed(t, 20, 300, 50)
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadSeed(&buf)
	if err != nil {
		t.Fatalf("ReadSeed: %v", err)
	}
	if got.Graph.NumVertices() != s.Graph.NumVertices() || got.Graph.NumEdges() != s.Graph.NumEdges() {
		t.Fatal("graph sizes differ")
	}
	// Distributions must sample identically under the same RNG stream.
	r1 := stats.NewRNG(1, 1)
	r2 := stats.NewRNG(1, 1)
	for i := 0; i < 500; i++ {
		if s.InDegree.Sample(r1) != got.InDegree.Sample(r2) {
			t.Fatal("in-degree sampling diverged")
		}
	}
	r1 = stats.NewRNG(2, 2)
	r2 = stats.NewRNG(2, 2)
	for i := 0; i < 500; i++ {
		if s.OutDegree.Sample(r1) != got.OutDegree.Sample(r2) {
			t.Fatal("out-degree sampling diverged")
		}
	}
	r1 = stats.NewRNG(3, 3)
	r2 = stats.NewRNG(3, 3)
	for i := 0; i < 500; i++ {
		if s.Props.Sample(r1) != got.Props.Sample(r2) {
			t.Fatal("property sampling diverged")
		}
	}
}

func TestSeedRoundTripGeneratesIdentically(t *testing.T) {
	// The strongest contract: a generator fed the deserialized seed must
	// produce the exact same graph as with the original.
	s := traceSeed(t, 15, 200, 51)
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSeed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gen := &PGPBA{Fraction: 0.5, Seed: 52}
	a, err := gen.Generate(s, 3000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Generate(loaded, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("sizes differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for i := range a.EdgeSlice() {
		if a.EdgeSlice()[i] != b.EdgeSlice()[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestReadSeedRejectsGarbage(t *testing.T) {
	if _, err := ReadSeed(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadSeed(strings.NewReader("NOPE....")); err == nil {
		t.Error("bad magic accepted")
	}
	// Valid magic, truncated body.
	s := traceSeed(t, 10, 100, 53)
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, cut := range []int{6, 40, len(b) / 2, len(b) - 3} {
		if _, err := ReadSeed(bytes.NewReader(b[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Corrupt a CDF byte inside the distribution section (after the graph).
	corrupt := append([]byte(nil), b...)
	// Find a late offset and flip bits; decoding must error or keep
	// invariants (never panic).
	corrupt[len(corrupt)-10] ^= 0xff
	_, _ = ReadSeed(bytes.NewReader(corrupt)) // must not panic
}
