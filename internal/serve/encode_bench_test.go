package serve

import (
	"testing"

	"csb/internal/cluster"
	"csb/internal/core"
	"csb/internal/graph"
)

// benchArtifactGraph generates the graph of a 100k-edge PGPBA spec on the
// default placement, as BuildArtifact does before it encodes.
func benchArtifactGraph(b *testing.B) *graph.Graph {
	b.Helper()
	spec := Spec{Generator: GenPGPBA, Seed: 1, Edges: 100_000}
	if err := spec.Normalize(); err != nil {
		b.Fatal(err)
	}
	seed, err := core.SyntheticSeed(spec.Hosts, spec.Sessions, spec.Seed)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := core.NewGenerator(spec.Generator, spec.Fraction, spec.Seed, cluster.MustNew(cluster.Config{}))
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(seed, spec.Edges)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkEncodeArtifact times BuildArtifact's encode step, graph in and
// artifact bytes out, for every format on one 100k-edge PGPBA graph.
func BenchmarkEncodeArtifact(b *testing.B) {
	g := benchArtifactGraph(b)
	for _, format := range []string{FormatTSV, FormatCSV, FormatNDJSON, FormatCSBG} {
		b.Run(format, func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for b.Loop() {
				out, err := encodeArtifactOn(g, format, nil)
				if err != nil {
					b.Fatal(err)
				}
				size = len(out)
			}
			b.SetBytes(int64(size))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
		})
	}
}
