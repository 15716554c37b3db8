package replay

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"csb/internal/netflow"
)

// batchStreamBytes renders a complete stream for flows using batch frames
// whose sizes cycle through sizes (clamped to the flows remaining).
func batchStreamBytes(t testing.TB, flows []netflow.Flow, sizes []int) []byte {
	t.Helper()
	var buf bytes.Buffer
	hdr := EncodeHeader(Header{Flows: uint64(len(flows))})
	buf.Write(hdr[:])
	fw := newFrameWriter(&buf)
	for i, si := 0, 0; i < len(flows); si++ {
		k := sizes[si%len(sizes)]
		if k > len(flows)-i {
			k = len(flows) - i
		}
		if err := fw.writeFrame(uint64(i), EncodeFlows(flows[i:i+k])); err != nil {
			t.Fatal(err)
		}
		i += k
	}
	if err := fw.writeEnd(uint64(len(flows))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Batch frames of every legal size — including the 1-flow v1 frame and the
// MaxBatchFlows limit — decode to exactly the per-flow sequence the v1
// framing yields, and the concatenated payloads reproduce EncodeFlows.
func TestBatchFrameDecodeRoundTrip(t *testing.T) {
	flows := testFlows(t, 20, 300, 21)
	for _, sizes := range [][]int{
		{1},
		{3},
		{64},
		{MaxBatchFlows},
		{1, 5, 2, 64, 1, MaxBatchFlows},
	} {
		raw := batchStreamBytes(t, flows, sizes)
		var payload bytes.Buffer
		st, err := Consume(bytes.NewReader(raw), func(seq uint64, f netflow.Flow, rec []byte) error {
			if f != flows[seq] {
				t.Fatalf("sizes %v: flow %d differs", sizes, seq)
			}
			payload.Write(rec)
			return nil
		})
		if err != nil {
			t.Fatalf("sizes %v: %v", sizes, err)
		}
		if !st.Clean || st.Received != uint64(len(flows)) || st.Gaps != 0 {
			t.Fatalf("sizes %v: stats = %+v", sizes, st)
		}
		if !bytes.Equal(payload.Bytes(), EncodeFlows(flows)) {
			t.Fatalf("sizes %v: concatenated payloads differ from EncodeFlows", sizes)
		}
	}
}

// A stream interleaving v1 single-flow frames and batch frames decodes
// seamlessly: the rolling checksum folds payload bytes only, so the framing
// mix is invisible to the consumer.
func TestMixedV1AndBatchFramesOneStream(t *testing.T) {
	flows := testFlows(t, 20, 300, 22)
	var buf bytes.Buffer
	hdr := EncodeHeader(Header{Flows: uint64(len(flows))})
	buf.Write(hdr[:])
	fw := newFrameWriter(&buf)
	i := 0
	for batch := false; i < len(flows); batch = !batch {
		k := 1
		if batch {
			k = 7
			if k > len(flows)-i {
				k = len(flows) - i
			}
		}
		if err := fw.writeFrame(uint64(i), EncodeFlows(flows[i:i+k])); err != nil {
			t.Fatal(err)
		}
		i += k
	}
	if err := fw.writeEnd(uint64(len(flows))); err != nil {
		t.Fatal(err)
	}
	st, err := Consume(bytes.NewReader(buf.Bytes()), func(seq uint64, f netflow.Flow, _ []byte) error {
		if f != flows[seq] {
			t.Fatalf("flow %d differs", seq)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Clean || st.Received != uint64(len(flows)) || st.Gaps != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Drop-policy gaps land between frames as sequence jumps; the reader counts
// them the same whether the surviving runs ship as batches or v1 frames.
func TestBatchFramesCountGapsBetweenBatches(t *testing.T) {
	flows := testFlows(t, 20, 300, 23)
	if len(flows) < 40 {
		t.Skip("need more flows")
	}
	// Emit runs of 8, skipping 4 flows between runs.
	var buf bytes.Buffer
	hdr := EncodeHeader(Header{Flows: uint64(len(flows))})
	buf.Write(hdr[:])
	fw := newFrameWriter(&buf)
	var sent, skipped uint64
	for i := 0; i+8 <= len(flows); i += 12 {
		if err := fw.writeFrame(uint64(i), EncodeFlows(flows[i:i+8])); err != nil {
			t.Fatal(err)
		}
		sent += 8
		// A skip only registers as a gap when a later frame follows it.
		if i+12+8 <= len(flows) {
			skipped += 4
		}
	}
	if err := fw.writeEnd(sent); err != nil {
		t.Fatal(err)
	}
	st, err := checkConsumeEqualsNext(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Received != sent || st.Gaps != skipped {
		t.Fatalf("stats = %+v, want received %d gaps %d", st, sent, skipped)
	}
}

// Corrupt batch frames surface typed ErrCorruptStream, never a panic: a
// length that is not a whole number of records, a batch over the wire limit,
// a flipped payload byte, and a sequence regression.
func TestBatchFrameCorruptionTyped(t *testing.T) {
	flows := testFlows(t, 20, 300, 24)
	writeRaggedFrame := func(fw *frameWriter, length uint32, seq uint64, payload []byte) error {
		// Hand-roll a frame with a lying length field.
		var pre [12]byte
		pre[0] = byte(length >> 24)
		pre[1] = byte(length >> 16)
		pre[2] = byte(length >> 8)
		pre[3] = byte(length)
		for i := 0; i < 8; i++ {
			pre[4+i] = byte(seq >> (56 - 8*i))
		}
		if _, err := fw.w.Write(pre[:]); err != nil {
			return err
		}
		if _, err := fw.w.Write(payload); err != nil {
			return err
		}
		var sum [4]byte
		if _, err := fw.w.Write(sum[:]); err != nil {
			return err
		}
		return fw.w.Flush()
	}

	t.Run("ragged length", func(t *testing.T) {
		var buf bytes.Buffer
		hdr := EncodeHeader(Header{Flows: 2})
		buf.Write(hdr[:])
		fw := newFrameWriter(&buf)
		if err := writeRaggedFrame(fw, FlowRecordLen+1, 0, make([]byte, FlowRecordLen+1)); err != nil {
			t.Fatal(err)
		}
		_, err := Consume(bytes.NewReader(buf.Bytes()), nil)
		if !errors.Is(err, ErrCorruptStream) {
			t.Fatalf("err = %v, want ErrCorruptStream", err)
		}
	})

	t.Run("oversized batch", func(t *testing.T) {
		var buf bytes.Buffer
		hdr := EncodeHeader(Header{Flows: MaxBatchFlows + 1})
		buf.Write(hdr[:])
		fw := newFrameWriter(&buf)
		const n = (MaxBatchFlows + 1) * FlowRecordLen
		if err := writeRaggedFrame(fw, n, 0, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		_, err := Consume(bytes.NewReader(buf.Bytes()), nil)
		if !errors.Is(err, ErrCorruptStream) {
			t.Fatalf("err = %v, want ErrCorruptStream", err)
		}
	})

	t.Run("flipped payload byte", func(t *testing.T) {
		raw := batchStreamBytes(t, flows, []int{16})
		// Flip a byte inside the first batch's payload (frame header is 12
		// bytes after the stream header).
		raw[HeaderLen+12+200] ^= 0x01
		_, err := Consume(bytes.NewReader(raw), nil)
		if !errors.Is(err, ErrCorruptStream) {
			t.Fatalf("err = %v, want ErrCorruptStream", err)
		}
	})

	t.Run("sequence regression", func(t *testing.T) {
		var buf bytes.Buffer
		hdr := EncodeHeader(Header{Flows: uint64(len(flows))})
		buf.Write(hdr[:])
		fw := newFrameWriter(&buf)
		if err := fw.writeFrame(0, EncodeFlows(flows[:8])); err != nil {
			t.Fatal(err)
		}
		// The next batch claims to start at flow 2, inside the previous one.
		if err := fw.writeFrame(2, EncodeFlows(flows[2:10])); err != nil {
			t.Fatal(err)
		}
		if err := fw.writeEnd(16); err != nil {
			t.Fatal(err)
		}
		_, err := Consume(bytes.NewReader(buf.Bytes()), nil)
		if !errors.Is(err, ErrCorruptStream) {
			t.Fatalf("err = %v, want ErrCorruptStream", err)
		}
	})
}

// Interop: a batch-framing server and a v1 single-frame server deliver the
// same flows to the same unchanged Consume client — identical per-flow
// sequence numbers, identical concatenated payloads, zero gaps.
func TestBatchInteropIdenticalDelivery(t *testing.T) {
	flows := testFlows(t, 20, 300, 25)
	want := EncodeFlows(flows)
	for _, batchLen := range []int{1, 0, DefaultBatchLen, MaxBatchFlows} {
		s, addr := serveFlows(t, flows, Options{Policy: PolicyBlock, BatchLen: batchLen})
		var (
			seqs    []uint64
			payload bytes.Buffer
			st      ConsumeStats
			cerr    error
			wg      sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				cerr = err
				return
			}
			defer conn.Close()
			st, cerr = Consume(conn, func(seq uint64, _ netflow.Flow, raw []byte) error {
				seqs = append(seqs, seq)
				payload.Write(raw)
				return nil
			})
		}()
		if err := s.AwaitSubscribers(1, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		s.Wait()
		wg.Wait()
		if cerr != nil {
			t.Fatalf("batch %d: %v", batchLen, cerr)
		}
		if !st.Clean || st.Gaps != 0 || st.Received != uint64(len(flows)) {
			t.Fatalf("batch %d: stats = %+v", batchLen, st)
		}
		for i, seq := range seqs {
			if seq != uint64(i) {
				t.Fatalf("batch %d: delivery %d carried seq %d", batchLen, i, seq)
			}
		}
		if !bytes.Equal(payload.Bytes(), want) {
			t.Fatalf("batch %d: payload differs from EncodeFlows", batchLen)
		}
	}
}

// A BatchLen 1 server reproduces the pre-batch wire format byte for byte:
// the whole TCP stream, not just the payloads, matches the v1 rendering.
func TestBatchLenOneServerEmitsExactV1Bytes(t *testing.T) {
	flows := testFlows(t, 20, 300, 26)
	want := streamBytes(t, flows)
	s, addr := serveFlows(t, flows, Options{Policy: PolicyBlock, BatchLen: 1})
	var (
		got []byte
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, derr := net.Dial("tcp", addr)
		if derr != nil {
			err = derr
			return
		}
		defer conn.Close()
		got, err = io.ReadAll(conn)
	}()
	if aerr := s.AwaitSubscribers(1, 10*time.Second); aerr != nil {
		t.Fatal(aerr)
	}
	if serr := s.Start(); serr != nil {
		t.Fatal(serr)
	}
	s.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BatchLen 1 wire bytes differ from v1 rendering (%d vs %d bytes)", len(got), len(want))
	}
}
