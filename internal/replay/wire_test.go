package replay

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"csb/internal/graph"
	"csb/internal/netflow"
	"csb/internal/pcap"
)

// testFlows assembles a real flow set (sorted by StartMicros with actual
// timestamps) from a synthetic trace.
func testFlows(t testing.TB, hosts, sessions int, seed uint64) []netflow.Flow {
	t.Helper()
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(hosts, sessions, seed))
	if err != nil {
		t.Fatal(err)
	}
	flows := netflow.Assemble(pkts, 0)
	if len(flows) == 0 {
		t.Fatal("no flows assembled")
	}
	return flows
}

func TestFlowRecordRoundTrip(t *testing.T) {
	f := netflow.Flow{
		SrcIP: 0x0a000001, DstIP: 0xc0a80102,
		Protocol: graph.ProtoTCP, SrcPort: 49152, DstPort: 443,
		StartMicros: 1318204800_000001, EndMicros: 1318204860_999999,
		OutBytes: 123456, InBytes: 654321, OutPkts: 42, InPkts: 40,
		State: graph.StateSF, SYNCount: 2, ACKCount: 80,
	}
	rec := EncodeFlow(&f)
	got, err := DecodeFlow(rec[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
	}
}

func TestFlowRecordRoundTripAllAssembled(t *testing.T) {
	for _, f := range testFlows(t, 20, 300, 5) {
		rec := EncodeFlow(&f)
		got, err := DecodeFlow(rec[:])
		if err != nil {
			t.Fatal(err)
		}
		if got != f {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, f)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	var sha [32]byte
	for i := range sha {
		sha[i] = byte(i * 7)
	}
	b := EncodeHeader(Header{ArtifactSHA: sha, Flows: 12345})
	h, err := DecodeHeader(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if h.ArtifactSHA != sha || h.Flows != 12345 {
		t.Fatalf("header = %+v", h)
	}
	b[0] = 'X'
	if _, err := DecodeHeader(b[:]); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestFlowFileRoundTrip(t *testing.T) {
	flows := testFlows(t, 20, 300, 6)
	var buf bytes.Buffer
	if err := WriteFlowFile(&buf, flows); err != nil {
		t.Fatal(err)
	}
	// The flow section after the header is exactly EncodeFlows.
	if got, want := buf.Bytes()[FlowFileHeaderLen:], EncodeFlows(flows); !bytes.Equal(got, want) {
		t.Fatal("flow section differs from EncodeFlows")
	}
	back, err := ReadFlowFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(flows) {
		t.Fatalf("%d flows, want %d", len(back), len(flows))
	}
	for i := range back {
		if back[i] != flows[i] {
			t.Fatalf("flow %d differs", i)
		}
	}
}

// streamBytes renders a complete stream for flows as one subscriber would
// receive it.
func streamBytes(t *testing.T, flows []netflow.Flow) []byte {
	t.Helper()
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

func TestStreamReaderRoundTrip(t *testing.T) {
	flows := testFlows(t, 20, 300, 7)
	raw := streamBytes(t, flows)
	st, err := Consume(bytes.NewReader(raw), func(seq uint64, f netflow.Flow, _ []byte) error {
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

func TestStreamReaderDetectsCorruption(t *testing.T) {
	flows := testFlows(t, 20, 300, 8)
	raw := streamBytes(t, flows)
	// Flip one payload byte mid-stream: the rolling checksum on that frame
	// must catch it.
	raw[HeaderLen+frameOverhead+40] ^= 0x01
	_, err := Consume(bytes.NewReader(raw), nil)
	if err == nil {
		t.Fatal("corrupted stream accepted")
	}
}

func TestStreamReaderDetectsTruncation(t *testing.T) {
	flows := testFlows(t, 20, 300, 8)
	raw := streamBytes(t, flows)
	_, err := Consume(bytes.NewReader(raw[:len(raw)/2]), nil)
	if err == nil {
		t.Fatal("truncated stream accepted")
	}
	st, err := Consume(io.MultiReader(bytes.NewReader(raw[:len(raw)/2]), &errReader{}), nil)
	if err == nil || st.Clean {
		t.Fatalf("err = %v, stats = %+v", err, st)
	}
}

type errReader struct{}

func (*errReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

func TestStreamReaderCountsGaps(t *testing.T) {
	flows := testFlows(t, 20, 300, 9)
	if len(flows) < 10 {
		t.Skip("need more flows")
	}
	// Emit only every other frame, as a drop-policy server would.
	var buf bytes.Buffer
	hdr := EncodeHeader(Header{Flows: uint64(len(flows))})
	buf.Write(hdr[:])
	fw := newFrameWriter(&buf)
	var sent uint64
	for i := 0; i < len(flows); i += 2 {
		rec := EncodeFlow(&flows[i])
		if err := fw.writeFrame(uint64(i), rec[:]); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if err := fw.writeEnd(sent); err != nil {
		t.Fatal(err)
	}
	st, err := checkConsumeEqualsNext(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Received != sent || st.Gaps == 0 {
		t.Fatalf("stats = %+v (sent %d)", st, sent)
	}
}

// delivered is one flow as a consumer saw it.
type delivered struct {
	seq  uint64
	flow netflow.Flow
	raw  [FlowRecordLen]byte
}

// checkConsumeEqualsNext reads data three ways — a StreamReader.Next loop,
// Consume with a callback, Consume with none — and wants one answer: the same
// (seq, flow, raw) sequence, the same stats, the same error.
func checkConsumeEqualsNext(t testing.TB, data []byte) (ConsumeStats, error) {
	t.Helper()
	var want []delivered
	var wantStats ConsumeStats
	sr, wantErr := NewStreamReader(bytes.NewReader(data))
	for wantErr == nil {
		var fr Frame
		if fr, wantErr = sr.Next(); wantErr != nil || fr.End {
			wantStats = sr.stats(fr.End)
			break
		}
		want = append(want, delivered{fr.Seq, fr.Flow, [FlowRecordLen]byte(fr.Raw)})
	}

	var got []delivered
	stats, err := Consume(bytes.NewReader(data), func(seq uint64, f netflow.Flow, raw []byte) error {
		if len(raw) != FlowRecordLen {
			t.Fatalf("callback raw is %d bytes", len(raw))
		}
		got = append(got, delivered{seq, f, [FlowRecordLen]byte(raw)})
		return nil
	})
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || stats != wantStats {
		t.Fatalf("Consume = %+v, %v; the Next loop reads %+v, %v", stats, err, wantStats, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Consume delivered %d flows, the Next loop %d, or not the same ones", len(got), len(want))
	}
	for i := range got {
		if f, _ := DecodeFlow(got[i].raw[:]); f != got[i].flow {
			t.Fatalf("flow %d: callback flow %+v is not its raw record %+v", i, got[i].flow, f)
		}
	}
	if stats, err := Consume(bytes.NewReader(data), nil); fmt.Sprint(err) != fmt.Sprint(wantErr) || stats != wantStats {
		t.Fatalf("nil-callback Consume = %+v, %v; the Next loop reads %+v, %v", stats, err, wantStats, wantErr)
	}
	return stats, err
}

// TestConsumeEqualsNextLoop: Consume works a frame at a time and skips the
// decode when nobody listens; a consumer must not be able to tell — over v1
// frames, batches of every shape and streams that fail (the two gap tests,
// TestStreamReaderCountsGaps and TestBatchFramesCountGapsBetweenBatches, read
// their streams through the same check).
func TestConsumeEqualsNextLoop(t *testing.T) {
	flows := testFlows(t, 20, 300, 18)
	n := uint64(len(flows))
	accepted := func(name string, data []byte, received, gaps uint64) {
		t.Helper()
		st, err := checkConsumeEqualsNext(t, data)
		if err != nil || !st.Clean || st.Received != received || st.Gaps != gaps {
			t.Fatalf("%s: stats %+v, err %v; want %d received, %d gaps, clean", name, st, err, received, gaps)
		}
	}
	accepted("v1 frames", streamBytes(t, flows), n, 0)
	accepted("batches", batchStreamBytes(t, flows, []int{1, 7, 64, 2, MaxBatchFlows}), n, 0)
	accepted("empty run", batchStreamBytes(t, nil, []int{4}), 0, 0)

	// The checks a nil callback must not skip: one flipped payload byte, a
	// wrong end-frame count, a cut mid-batch.
	batched := batchStreamBytes(t, flows, []int{16})
	rejected := func(name string, data []byte, corrupt bool) {
		t.Helper()
		st, err := checkConsumeEqualsNext(t, data)
		if err == nil || st.Clean || errors.Is(err, ErrCorruptStream) != corrupt {
			t.Fatalf("%s: stats %+v, err %v", name, st, err)
		}
	}
	flipped := bytes.Clone(batched)
	flipped[HeaderLen+12+16*FlowRecordLen+4+12+3*FlowRecordLen+9] ^= 0x40 // second frame, fourth record
	rejected("flipped payload byte", flipped, true)
	miscounted := bytes.Clone(batched)
	miscounted[len(miscounted)-5]++ // low byte of the end frame's count
	rejected("wrong end count", miscounted, true)
	rejected("truncated", batched[:len(batched)/2], false)
}

// BenchmarkConsume reads one captured stream — the server's default batch
// framing — with a callback that does nothing and with none.
func BenchmarkConsume(b *testing.B) {
	flows := testFlows(b, 50, 4000, 18)
	data := batchStreamBytes(b, flows, []int{DefaultBatchLen})
	for _, bc := range []struct {
		name string
		fn   func(uint64, netflow.Flow, []byte) error
	}{
		{"noop", func(uint64, netflow.Flow, []byte) error { return nil }},
		{"nil", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if st, err := Consume(bytes.NewReader(data), bc.fn); err != nil || st.Received != uint64(len(flows)) {
					b.Fatalf("stats %+v, err %v", st, err)
				}
			}
			b.ReportMetric(float64(len(flows))*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
		})
	}
}
