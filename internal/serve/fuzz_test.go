package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzDecodeSpill feeds arbitrary bytes to the CSB1 spill decoder the disk
// tier runs on every revisit. Each input either fails with an error wrapping
// errSpillCorrupt or yields a payload whose length and SHA-256 are the
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
		if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], raw[12:spillHeaderLen]) {
			t.Fatal("payload does not hash to the header's digest")
		}
	})
}
