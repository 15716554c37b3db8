package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"csb/internal/graph"
	"csb/internal/stats"
)

// FuzzReadSeed feeds arbitrary bytes to the CSBA decoder: it must return an
// error or a seed that validates and samples, and what it allocates must not
// follow a count the input claims but does not carry.
func FuzzReadSeed(f *testing.F) {
	// A small valid seed keeps every mutation cheap to decode.
	g := graph.New(3)
	g.AddEdge(graph.Edge{Src: 0, Dst: 1, Props: graph.EdgeProps{Protocol: graph.ProtoTCP, InBytes: 10, OutBytes: 40, DstPort: 80}})
	g.AddEdge(graph.Edge{Src: 0, Dst: 2, Props: graph.EdgeProps{Protocol: graph.ProtoUDP, InBytes: 5000, OutBytes: 90, DstPort: 53}})
	g.AddEdge(graph.Edge{Src: 1, Dst: 2, Props: graph.EdgeProps{Protocol: graph.ProtoTCP, InBytes: 30, OutBytes: 7, DstPort: 443}})
	seed, err := Analyze(g)
	if err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := seed.Write(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-5])
	f.Add(good.Bytes()[:good.Len()/2])
	// A valid header and graph, then a distribution claiming 2^24 values
	// and carrying only its mean.
	var torn bytes.Buffer
	torn.Write(seedMagic[:])
	torn.Write(binary.LittleEndian.AppendUint32(nil, seedFormatVersion))
	if err := graph.New(1).Write(&torn); err != nil {
		f.Fatal(err)
	}
	torn.Write(binary.LittleEndian.AppendUint32(nil, 1<<24))
	torn.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1)))
	f.Add(torn.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// ReadSeed's 1 MiB read buffer and graph.Read's reservation of at
		// most 2^20 edge rows (54 B each) and 2^20 addresses do not depend
		// on the input's length; everything else must grow with the bytes
		// that actually arrive.
		const fixed = 1<<20 + 1<<20*(54+4) + 64<<10
		bound := uint64(fixed + 16*len(data))
		var s *Seed
		var err error
		grew := uint64(1 << 63)
		// Another goroutine's allocations can only add to a reading, so the
		// smallest of a few is the decoder's own.
		for try := 0; try < 3 && grew > bound; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err = ReadSeed(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > bound {
			t.Fatalf("allocated %d bytes decoding %d bytes", grew, len(data))
		}
		if err != nil {
			return
		}
		if err := s.Graph.Validate(); err != nil {
			t.Fatalf("accepted seed with invalid graph: %v", err)
		}
		rng := stats.NewRNG(1, 2)
		for i := 0; i < 16; i++ {
			s.InDegree.Sample(rng)
			s.OutDegree.Sample(rng)
			s.Props.Sample(rng)
			s.Props.SampleIndependent(rng)
		}
	})
}
