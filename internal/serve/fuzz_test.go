package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"csb/internal/cluster"
)

// FuzzDecodeSpill feeds arbitrary bytes to the CSB1 spill decoder the disk
// tier runs on every revisit. Each input either fails with an error wrapping
// errSpillCorrupt or yields a payload whose length and CRC-32 are the
// header's, and decoding never allocates more than the input's size.
func FuzzDecodeSpill(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "a.art")
	if err := writeSpillFile(dir, path, []byte("src\tdst\n0\t1\n")); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:spillHeaderLen])
	f.Add(good[:len(good)-1])
	f.Add(append(bytes.Clone(good), 'x'))
	f.Add(append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]^1))
	huge := bytes.Clone(good)
	binary.BigEndian.PutUint64(huge[4:12], 1<<62) // a length no file backs
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Errors carry a short message; everything else is a subslice.
		const slack = 4 << 10
		var payload []byte
		var err error
		grew := uint64(1 << 63)
		// Another goroutine's allocations can only add to a reading, so the
		// smallest of a few is the decoder's own.
		for try := 0; try < 3 && grew > uint64(len(raw))+slack; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			payload, err = decodeSpill(raw)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > uint64(len(raw))+slack {
			t.Fatalf("allocated %d bytes decoding %d", grew, len(raw))
		}
		if err != nil {
			if !errors.Is(err, errSpillCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if uint64(len(payload)) != binary.BigEndian.Uint64(raw[4:12]) {
			t.Fatalf("payload is %d bytes, header says %d", len(payload), binary.BigEndian.Uint64(raw[4:12]))
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(raw[12:spillHeaderLen]) {
			t.Fatal("payload does not match the header's CRC-32")
		}
	})
}

// FuzzArtifactShapeIndependence builds one small spec on two random engine
// shapes and partition counts: the artifact digests must be equal, since
// every draw is keyed to a block of the element index, never to a
// partition. Targets span 4 to 35 blocks, so the shapes cut the drawing
// stages into different tasks.
func FuzzArtifactShapeIndependence(f *testing.F) {
	f.Add(uint64(1), false, uint16(1500), uint8(1), uint8(1), uint8(0), uint8(2), uint8(4), uint8(0))
	f.Add(uint64(7), true, uint16(3900), uint8(4), uint8(4), uint8(64), uint8(1), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, pgsk bool, edges uint16, n1, c1, p1, n2, c2, p2 uint8) {
		spec := Spec{Generator: GenPGPBA, Hosts: 12, Sessions: 100, Seed: seed,
			Edges: 500 + int64(edges)%4000, Format: FormatCSBG}
		if pgsk {
			spec.Generator = GenPGSK
		}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		digest := func(nodes, cores, parts uint8) [32]byte {
			c := cluster.MustNew(cluster.Config{Nodes: 1 + int(nodes%4), CoresPerNode: 1 + int(cores%4),
				DefaultPartitions: int(parts % 65)})
			data, err := BuildArtifact(context.Background(), spec, c)
			if err != nil {
				t.Fatal(err)
			}
			return sha256.Sum256(data)
		}
		if digest(n1, c1, p1) != digest(n2, c2, p2) {
			t.Fatalf("%s: bytes differ between shapes %dx%d/%d and %dx%d/%d",
				spec.ID(), 1+n1%4, 1+c1%4, p1%65, 1+n2%4, 1+c2%4, p2%65)
		}
	})
}
