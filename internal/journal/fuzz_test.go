package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzReadRecord feeds arbitrary bytes to the CSBJ1 record decoder as the
// tail of a log of exactly that length. It must never panic, never consume
// more than it was given, allocate nothing a length field asks for beyond
// what the log still holds, fail only with ErrCorrupt or a short read, and
// an accepted record must re-encode to the bytes it was read from.
func FuzzReadRecord(f *testing.F) {
	good, err := encodeRecord(Record{Kind: "job.accepted", Key: "a1", Payload: []byte("spec")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]^1))
	f.Add(binary.BigEndian.AppendUint32([]byte{1, 'k', 1, 'y'}, 200<<20)) // torn 200 MiB length
	f.Add(binary.BigEndian.AppendUint32([]byte{1, 'k', 1, 'y'}, maxPayload+1))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Everything readRecord may keep is two 255-byte names (as bytes and
		// as strings), the payload and a hasher.
		const slack = 4 << 10
		var rec Record
		var n int64
		var err error
		grew := uint64(1 << 63)
		// Another goroutine's allocations can only add to a reading, so the
		// smallest of a few is the decoder's own.
		for try := 0; try < 3 && grew > uint64(len(data))+slack; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rec, n, err = readRecord(bytes.NewReader(data), int64(len(data)))
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > uint64(len(data))+slack {
			t.Fatalf("allocated %d bytes decoding a %d-byte tail", grew, len(data))
		}
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if rec.Kind == "" {
			return // decodes, but Append would never have written it
		}
		back, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if !bytes.Equal(back, data[:n]) {
			t.Fatalf("re-encoded record differs from the %d bytes it was read from", n)
		}
	})
}
