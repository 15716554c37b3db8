package replay

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"csb/internal/graph"
	"csb/internal/netflow"
)

// fuzzFlows is a small valid flow set used to seed the corpora.
func fuzzFlows() []netflow.Flow {
	return []netflow.Flow{
		{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 443, DstPort: 51000,
			Protocol: graph.ProtoTCP, State: graph.StateSF,
			StartMicros: 1000, EndMicros: 2000,
			OutBytes: 1200, InBytes: 8000, OutPkts: 10, InPkts: 12,
			SYNCount: 1, ACKCount: 9},
		{SrcIP: 0xc0a80101, DstIP: 0x08080808, SrcPort: 53321, DstPort: 53,
			Protocol:    graph.ProtoUDP,
			StartMicros: 5000, EndMicros: 5100,
			OutBytes: 64, InBytes: 512, OutPkts: 1, InPkts: 1},
	}
}

// validStream renders a complete CSBS1 stream (header, flow frames, end
// frame) the way a server does.
func validStream(t testing.TB) []byte {
	t.Helper()
	flows := fuzzFlows()
	var buf bytes.Buffer
	hdr := EncodeHeader(Header{Flows: uint64(len(flows))})
	buf.Write(hdr[:])
	fw := newFrameWriter(&buf)
	for i := range flows {
		rec := EncodeFlow(&flows[i])
		if err := fw.writeFrame(uint64(i), rec[:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.writeEnd(uint64(len(flows))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expectTyped fails the fuzz run if err is not one of the contract errors:
// ErrCorruptStream for malformed bytes, io.EOF / io.ErrUnexpectedEOF for
// truncation.
func expectTyped(t *testing.T, err error) {
	t.Helper()
	if errors.Is(err, ErrCorruptStream) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return
	}
	t.Fatalf("untyped decode error: %v", err)
}

// FuzzDecodeFrame drives the CSBS1 stream reader over arbitrary bytes: it
// must terminate, never panic, and classify every failure as either stream
// corruption (ErrCorruptStream) or truncation (io.EOF family).
func FuzzDecodeFrame(f *testing.F) {
	valid := validStream(f)
	f.Add(valid)
	f.Add(valid[:HeaderLen])              // header only
	f.Add(valid[:HeaderLen+7])            // truncated mid-frame-header
	f.Add(valid[:len(valid)-3])           // truncated mid-checksum
	f.Add([]byte("CSBS1"))                // short header
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // garbage
	flipped := append([]byte(nil), valid...)
	flipped[HeaderLen+12] ^= 0x01 // corrupt first payload byte -> CRC mismatch
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			expectTyped(t, err)
			return
		}
		for {
			fr, err := sr.Next()
			if err != nil {
				expectTyped(t, err)
				return
			}
			if fr.End {
				// After a clean end frame only io.EOF may follow.
				if _, err := sr.Next(); !errors.Is(err, io.EOF) {
					t.Fatalf("post-end Next() = %v, want io.EOF", err)
				}
				return
			}
		}
	})
}

// batchStream renders a stream carrying flows tiled to total records, framed
// in batches of batchLen (the final frame takes whatever remains).
func batchStream(t testing.TB, total, batchLen int) []byte {
	t.Helper()
	base := fuzzFlows()
	flows := make([]netflow.Flow, total)
	for i := range flows {
		flows[i] = base[i%len(base)]
	}
	var buf bytes.Buffer
	hdr := EncodeHeader(Header{Flows: uint64(total)})
	buf.Write(hdr[:])
	fw := newFrameWriter(&buf)
	for i := 0; i < total; i += batchLen {
		j := i + batchLen
		if j > total {
			j = total
		}
		if err := fw.writeFrame(uint64(i), EncodeFlows(flows[i:j])); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.writeEnd(uint64(total)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeBatchFrame drives the stream reader over byte streams seeded with
// batch frames — whole batches, mixed v1/batch framing, corrupt batch length
// fields, flipped mid-batch payload bytes, and regressing batch sequence
// numbers. The contract is the same as FuzzDecodeFrame (no panic, every
// failure typed), plus a stronger invariant on success: however the input
// frames its records, the per-flow sequence numbers the reader yields are
// strictly increasing and the received count matches what it yielded. And on
// every input, accepted or not, Consume — which reads a frame at a time —
// delivers, counts and fails exactly as the Next loop does.
func FuzzDecodeBatchFrame(f *testing.F) {
	f.Add(batchStream(f, 16, 4))  // uniform batches
	f.Add(batchStream(f, 10, 3))  // ragged final batch
	f.Add(batchStream(f, 6, 1))   // pure v1 framing
	f.Add(batchStream(f, 64, 64)) // one maximal-for-input batch

	// Mixed v1 and batch frames on one stream.
	mixed := func() []byte {
		base := fuzzFlows()
		flows := make([]netflow.Flow, 9)
		for i := range flows {
			flows[i] = base[i%len(base)]
		}
		var buf bytes.Buffer
		hdr := EncodeHeader(Header{Flows: uint64(len(flows))})
		buf.Write(hdr[:])
		fw := newFrameWriter(&buf)
		for _, span := range [][2]int{{0, 1}, {1, 5}, {5, 6}, {6, 9}} {
			if err := fw.writeFrame(uint64(span[0]), EncodeFlows(flows[span[0]:span[1]])); err != nil {
				f.Fatal(err)
			}
		}
		if err := fw.writeEnd(uint64(len(flows))); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(mixed)

	valid := batchStream(f, 16, 4)
	// Length field not a whole number of records.
	ragged := append([]byte(nil), valid...)
	ragged[HeaderLen+3]++
	f.Add(ragged)
	// Length field claiming a batch over the wire limit.
	huge := append([]byte(nil), valid...)
	huge[HeaderLen+0] = 0x01 // 4*80 -> 2^24 + 4*80 bytes
	f.Add(huge)
	// Flipped byte inside the second record of the first batch -> CRC mismatch.
	flipped := append([]byte(nil), valid...)
	flipped[HeaderLen+12+FlowRecordLen+5] ^= 0x01
	f.Add(flipped)
	// Second batch's seq regresses into the first.
	regress := append([]byte(nil), valid...)
	regress[HeaderLen+12+4*FlowRecordLen+4+11] = 1 // seq 4 -> 1
	f.Add(regress)
	// Truncation mid-batch payload.
	f.Add(valid[:HeaderLen+12+2*FlowRecordLen+7])

	f.Fuzz(func(t *testing.T, data []byte) {
		checkConsumeEqualsNext(t, data)
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			expectTyped(t, err)
			return
		}
		var yielded uint64
		lastSeq, haveSeq := uint64(0), false
		for {
			fr, err := sr.Next()
			if err != nil {
				expectTyped(t, err)
				return
			}
			if fr.End {
				if sr.Received != yielded {
					t.Fatalf("Received = %d, yielded %d flows", sr.Received, yielded)
				}
				if _, err := sr.Next(); !errors.Is(err, io.EOF) {
					t.Fatalf("post-end Next() = %v, want io.EOF", err)
				}
				return
			}
			if haveSeq && fr.Seq <= lastSeq {
				t.Fatalf("seq %d after %d: not strictly increasing", fr.Seq, lastSeq)
			}
			lastSeq, haveSeq = fr.Seq, true
			if len(fr.Raw) != FlowRecordLen {
				t.Fatalf("frame raw is %d bytes", len(fr.Raw))
			}
			yielded++
		}
	})
}

// FuzzReadFlowFile drives the CSBF1 artifact parser over arbitrary bytes with
// the same no-panic, typed-error contract, and checks that intact files
// round-trip.
func FuzzReadFlowFile(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFlowFile(&buf, fuzzFlows()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:FlowFileHeaderLen])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte("CSBF1"))
	f.Add(bytes.Repeat([]byte{0x00}, 96))
	f.Fuzz(func(t *testing.T, data []byte) {
		flows, err := ReadFlowFile(bytes.NewReader(data))
		// The in-memory view of the same file accepts exactly what the
		// streaming parser accepts, and holds the same records.
		section, serr := FlowSection(data)
		if (err == nil) != (serr == nil) {
			t.Fatalf("ReadFlowFile: %v, FlowSection: %v", err, serr)
		}
		if err != nil {
			expectTyped(t, err)
			expectTyped(t, serr)
			return
		}
		if len(section) != len(flows)*FlowRecordLen {
			t.Fatalf("FlowSection holds %d bytes for %d flows", len(section), len(flows))
		}
		for i := range flows {
			if f, _ := DecodeFlow(section[i*FlowRecordLen:]); f != flows[i] {
				t.Fatalf("FlowSection record %d differs from ReadFlowFile's", i)
			}
		}
		// Parsed successfully: encode-then-decode must be the identity on the
		// parsed flows. (A full byte round trip is not promised — the header
		// and records carry padding bytes the parser deliberately ignores.)
		var out bytes.Buffer
		if err := WriteFlowFile(&out, flows); err != nil {
			t.Fatal(err)
		}
		again, err := ReadFlowFile(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-reading encoded flows: %v", err)
		}
		if len(again) != len(flows) {
			t.Fatalf("round trip changed flow count: %d vs %d", len(again), len(flows))
		}
		for i := range flows {
			if again[i] != flows[i] {
				t.Fatalf("flow %d changed across round trip", i)
			}
		}
	})
}
