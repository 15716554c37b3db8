// Package replay turns static csb datasets into live traffic: a flow-replay
// engine that re-emits an assembled dataset on its original inter-flow
// timeline (with a time-warp factor and an optional token-bucket rate cap)
// and a TCP streaming server that fans each run out to many concurrent
// subscribers — the delivery half of "on-line intrusion detection with
// streaming data", the paper's stated future work. Datasets stop being files
// and start being traffic an external NIDS (or internal/ids.StreamDetector)
// can consume as it happens.
//
// The wire format (CSBS1) is versioned, length-framed and self-verifying:
//
//	stream header (48 bytes):
//	  [0:5]   magic "CSBS1"
//	  [5]     flags (0)
//	  [6:8]   record length, uint16 BE (FlowRecordLen)
//	  [8:40]  SHA-256 content address of the source artifact (zero if unknown)
//	  [40:48] flow count of the run, uint64 BE
//
//	frame:
//	  [0:4]   payload length, uint32 BE: k*FlowRecordLen for a batch of k
//	          consecutive flows (k = 1 is the original v1 single-flow frame;
//	          0 = end of stream; any other length is corruption)
//	  [4:12]  sequence number, uint64 BE (the first flow's index in the run;
//	          a batch's k records are flows seq..seq+k-1; the end frame
//	          carries the count of flows emitted to this stream)
//	  [12:..] payload (k concatenated flow records)
//	  [..+4]  rolling CRC32 (IEEE), uint32 BE, of every payload byte
//	          delivered on this stream so far including this frame
//
// The sequence number makes lag-policy drops visible (a gap in seq), and the
// rolling checksum makes silent corruption or truncation detectable at every
// frame, not just at end of stream. Batch frames are pure framing: the
// checksum folds payload bytes, not frame boundaries, so a batch of k flows
// rolls the CRC to exactly the state k single-flow frames would, and
// concatenating the payloads of a gap-free stream reproduces the source
// artifact's flow section byte for byte regardless of how the sender
// batched. Decoders accept both kinds on one stream; senders written before
// the batch kind simply always emit k = 1.
package replay

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"csb/internal/bufpool"
	"csb/internal/graph"
	"csb/internal/netflow"
)

// Wire-format constants.
const (
	// MagicStream opens every CSBS1 stream.
	MagicStream = "CSBS1"
	// MagicFlowFile opens a CSBF1 flow artifact (header + raw records).
	MagicFlowFile = "CSBF1"
	// HeaderLen is the CSBS1 stream header length.
	HeaderLen = 48
	// FlowFileHeaderLen is the CSBF1 flow-artifact header length.
	FlowFileHeaderLen = 16
	// FlowRecordLen is the fixed encoded size of one flow record.
	FlowRecordLen = 80
	// MaxBatchFlows bounds how many flow records one batch frame may carry.
	// It caps the sender's framing and, more importantly, the decoder's
	// buffer: a corrupt length field can never demand more than
	// MaxBatchFlows*FlowRecordLen bytes.
	MaxBatchFlows = 1024
	// framePrefixLen is a frame's length and sequence fields, and
	// frameOverhead the per-frame framing cost: the prefix and the crc.
	framePrefixLen = 4 + 8
	frameOverhead  = framePrefixLen + 4
)

// ErrCorruptStream tags every decode failure caused by malformed wire bytes
// — bad magic, wrong record length, checksum mismatch, sequence regression,
// implausible counts. Callers distinguish corruption from plain truncation
// (which surfaces as io.EOF / io.ErrUnexpectedEOF) with errors.Is. The fuzz
// targets enforce that corrupt input always yields one of these typed errors
// and never a panic.
var ErrCorruptStream = errors.New("corrupt stream")

// corruptf builds an ErrCorruptStream-tagged error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("replay: "+format+": %w", append(args, ErrCorruptStream)...)
}

// Header is the decoded CSBS1 stream header.
type Header struct {
	// ArtifactSHA is the SHA-256 content address of the dataset being
	// replayed (the csbd spec ID when the daemon serves the run, the file
	// hash when csbreplay serves a local artifact). All zero when unknown.
	ArtifactSHA [32]byte
	// Flows is the total flow count of the run.
	Flows uint64
}

// EncodeHeader serializes h.
func EncodeHeader(h Header) [HeaderLen]byte {
	var b [HeaderLen]byte
	copy(b[0:5], MagicStream)
	binary.BigEndian.PutUint16(b[6:8], FlowRecordLen)
	copy(b[8:40], h.ArtifactSHA[:])
	binary.BigEndian.PutUint64(b[40:48], h.Flows)
	return b
}

// DecodeHeader parses and validates a CSBS1 stream header.
func DecodeHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderLen {
		return h, corruptf("short stream header (%d bytes)", len(b))
	}
	if string(b[0:5]) != MagicStream {
		return h, corruptf("bad stream magic %q", b[0:5])
	}
	if rl := binary.BigEndian.Uint16(b[6:8]); rl != FlowRecordLen {
		return h, corruptf("record length %d, want %d", rl, FlowRecordLen)
	}
	copy(h.ArtifactSHA[:], b[8:40])
	h.Flows = binary.BigEndian.Uint64(b[40:48])
	return h, nil
}

// EncodeFlow serializes one flow record into the fixed 80-byte wire form.
// All integers are big-endian; the encoding round-trips every Flow field.
func EncodeFlow(f *netflow.Flow) [FlowRecordLen]byte {
	var b [FlowRecordLen]byte
	binary.BigEndian.PutUint32(b[0:4], f.SrcIP)
	binary.BigEndian.PutUint32(b[4:8], f.DstIP)
	binary.BigEndian.PutUint16(b[8:10], f.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], f.DstPort)
	b[12] = uint8(f.Protocol)
	b[13] = uint8(f.State)
	binary.BigEndian.PutUint64(b[16:24], uint64(f.StartMicros))
	binary.BigEndian.PutUint64(b[24:32], uint64(f.EndMicros))
	binary.BigEndian.PutUint64(b[32:40], uint64(f.OutBytes))
	binary.BigEndian.PutUint64(b[40:48], uint64(f.InBytes))
	binary.BigEndian.PutUint64(b[48:56], uint64(f.OutPkts))
	binary.BigEndian.PutUint64(b[56:64], uint64(f.InPkts))
	binary.BigEndian.PutUint64(b[64:72], uint64(f.SYNCount))
	binary.BigEndian.PutUint64(b[72:80], uint64(f.ACKCount))
	return b
}

// DecodeFlow parses one 80-byte flow record.
func DecodeFlow(b []byte) (netflow.Flow, error) {
	var f netflow.Flow
	if len(b) < FlowRecordLen {
		return f, corruptf("short flow record (%d bytes)", len(b))
	}
	decodeFlow(&f, b)
	return f, nil
}

// decodeFlow overwrites every field of f from the record at b[:FlowRecordLen].
func decodeFlow(f *netflow.Flow, b []byte) {
	_ = b[FlowRecordLen-1]
	f.SrcIP = binary.BigEndian.Uint32(b[0:4])
	f.DstIP = binary.BigEndian.Uint32(b[4:8])
	f.SrcPort = binary.BigEndian.Uint16(b[8:10])
	f.DstPort = binary.BigEndian.Uint16(b[10:12])
	f.Protocol = graph.Protocol(b[12])
	f.State = graph.TCPState(b[13])
	f.StartMicros = int64(binary.BigEndian.Uint64(b[16:24]))
	f.EndMicros = int64(binary.BigEndian.Uint64(b[24:32]))
	f.OutBytes = int64(binary.BigEndian.Uint64(b[32:40]))
	f.InBytes = int64(binary.BigEndian.Uint64(b[40:48]))
	f.OutPkts = int64(binary.BigEndian.Uint64(b[48:56]))
	f.InPkts = int64(binary.BigEndian.Uint64(b[56:64]))
	f.SYNCount = int64(binary.BigEndian.Uint64(b[64:72]))
	f.ACKCount = int64(binary.BigEndian.Uint64(b[72:80]))
}

// EncodeFlows concatenates the wire records of a flow set — the "flow
// section" of a CSBF1 artifact, and exactly what a gap-free subscriber's
// concatenated frame payloads reproduce.
func EncodeFlows(flows []netflow.Flow) []byte {
	out := make([]byte, 0, len(flows)*FlowRecordLen)
	for i := range flows {
		rec := EncodeFlow(&flows[i])
		out = append(out, rec[:]...)
	}
	return out
}

// WriteFlowFile writes flows as a CSBF1 flow artifact: a 16-byte header
// (magic, record length, count) followed by the raw concatenated records.
func WriteFlowFile(w io.Writer, flows []netflow.Flow) error {
	var hdr [FlowFileHeaderLen]byte
	copy(hdr[0:5], MagicFlowFile)
	binary.BigEndian.PutUint16(hdr[6:8], FlowRecordLen)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(len(flows)))
	bw := bufpool.Get(w)
	defer bufpool.Put(bw)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for i := range flows {
		rec := EncodeFlow(&flows[i])
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// flowFileCount validates a CSBF1 header and returns its record count.
func flowFileCount(hdr *[FlowFileHeaderLen]byte) (uint64, error) {
	if string(hdr[0:5]) != MagicFlowFile {
		return 0, corruptf("bad flow-file magic %q", hdr[0:5])
	}
	if rl := binary.BigEndian.Uint16(hdr[6:8]); rl != FlowRecordLen {
		return 0, corruptf("flow-file record length %d, want %d", rl, FlowRecordLen)
	}
	count := binary.BigEndian.Uint64(hdr[8:16])
	if count > 1<<40 {
		return 0, corruptf("implausible flow count %d", count)
	}
	return count, nil
}

// FlowSection returns the flow section of an in-memory CSBF1 artifact — its
// counted records, aliased not copied, with the header and anything after the
// records (a labeled artifact's CSBL1 section) excluded. It accepts exactly
// the inputs ReadFlowFile accepts; the result is what NewServerFromRecords
// streams and what a gap-free subscriber's payloads concatenate to.
func FlowSection(data []byte) ([]byte, error) {
	if len(data) < FlowFileHeaderLen {
		return nil, fmt.Errorf("replay: flow-file header: %w", io.ErrUnexpectedEOF)
	}
	count, err := flowFileCount((*[FlowFileHeaderLen]byte)(data))
	if err != nil {
		return nil, err
	}
	body := data[FlowFileHeaderLen:]
	if have := uint64(len(body) / FlowRecordLen); count > have {
		return nil, fmt.Errorf("replay: flow record %d: %w", have, io.ErrUnexpectedEOF)
	}
	end := int(count) * FlowRecordLen
	return body[:end:end], nil
}

// ReadFlowFile parses a CSBF1 flow artifact.
func ReadFlowFile(r io.Reader) ([]netflow.Flow, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [FlowFileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("replay: flow-file header: %w", err)
	}
	count, err := flowFileCount(&hdr)
	if err != nil {
		return nil, err
	}
	// Never pre-allocate from the untrusted header count alone: a corrupt
	// 16-byte header claiming 2^40 flows must not demand terabytes up front.
	const maxPrealloc = 1 << 20
	flows := make([]netflow.Flow, 0, min(count, maxPrealloc))
	var rec [FlowRecordLen]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("replay: flow record %d: %w", i, err)
		}
		flows = append(flows, netflow.Flow{})
		decodeFlow(&flows[len(flows)-1], rec[:])
	}
	return flows, nil
}

// frameWriter emits framed records with the per-stream rolling checksum.
// It is not safe for concurrent use; each subscriber owns one.
type frameWriter struct {
	w   *bufio.Writer
	dst io.Writer // w's destination, for frames sent past the buffer
	crc uint32
	// pre and sum are the frame prefix and checksum scratch: as locals they
	// escape through the io.Writer and cost two allocations per frame. vec
	// and bufs are the vectored write's scratch, for the same reason.
	pre  [framePrefixLen]byte
	sum  [4]byte
	vec  [3][]byte
	bufs net.Buffers
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{w: bufio.NewWriterSize(w, 1<<15), dst: w}
}

// writeFrame emits one frame — payload is k >= 1 concatenated flow records,
// seq the first record's flow index — and folds the payload into the rolling
// checksum with a single CRC update, however many records it carries. A frame
// that does not fit the buffer's free space goes out, after a flush, as one
// vectored write straight from the payload, which is never copied.
func (fw *frameWriter) writeFrame(seq uint64, payload []byte) error {
	binary.BigEndian.PutUint32(fw.pre[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(fw.pre[4:12], seq)
	fw.crc = crc32.Update(fw.crc, crc32.IEEETable, payload)
	binary.BigEndian.PutUint32(fw.sum[:], fw.crc)
	if len(fw.pre)+len(payload)+len(fw.sum) > fw.w.Available() {
		if err := fw.w.Flush(); err != nil {
			return err
		}
		fw.vec = [3][]byte{fw.pre[:], payload, fw.sum[:]}
		fw.bufs = fw.vec[:]
		_, err := fw.bufs.WriteTo(fw.dst)
		return err
	}
	if _, err := fw.w.Write(fw.pre[:]); err != nil {
		return err
	}
	if _, err := fw.w.Write(payload); err != nil {
		return err
	}
	_, err := fw.w.Write(fw.sum[:])
	return err
}

// writeEnd emits the end-of-stream frame — an empty payload, so zero length
// and the final checksum — and flushes. delivered is the number of flows this
// stream carried.
func (fw *frameWriter) writeEnd(delivered uint64) error {
	if err := fw.writeFrame(delivered, nil); err != nil {
		return err
	}
	return fw.w.Flush()
}

// Frame is one decoded stream frame.
type Frame struct {
	// Seq is the flow's index in the run (frames skipped by a drop-policy
	// server show up as gaps in Seq).
	Seq uint64
	// Flow is the decoded record.
	Flow netflow.Flow
	// Raw is the payload as delivered (aliased into the reader's buffer
	// only until the next call; copy to retain).
	Raw []byte
	// End marks the end-of-stream frame; Seq then holds the delivered
	// count and Flow/Raw are zero.
	End bool
}

// StreamReader consumes one CSBS1 stream, verifying the rolling checksum on
// every frame. It decodes v1 single-flow frames and batch frames on the same
// stream transparently: Next yields exactly one flow per call either way, so
// callers never see the sender's framing. Its buffer holds the largest frame
// the wire allows, and each frame is checked and decoded where it lies in
// that buffer, so the payload is never copied out of it — which is also what
// keeps a fan-out consumer allocation-free per flow.
type StreamReader struct {
	br  *bufio.Reader
	crc uint32

	// payload holds the current frame's records, aliased into br's buffer
	// until the next frame is read; off is the byte offset of the next record
	// Next will yield, batchSeq the frame's first flow index.
	payload  []byte
	off      int
	batchSeq uint64

	// Header is the stream header, decoded at construction.
	Header Header
	// Received counts flow records read so far (a batch frame counts once
	// per record it carries).
	Received uint64
	// Gaps counts flows skipped by the sender's lag policy, derived from
	// sequence-number jumps.
	Gaps uint64
	// Head is the first frame's sequence number: the flows the run emitted
	// before this stream joined. Tail, set at the end frame, is what the run
	// held past the last flow seen (Header.Flows minus the sequence after
	// it): flows dropped, or never emitted, after the last delivered frame.
	// Neither shows as a gap, and on a clean stream
	// Received + Gaps + Head + Tail == Header.Flows.
	Head uint64
	Tail uint64

	nextSeq uint64
	started bool
	done    bool
}

// maxFrameLen is the largest frame the wire allows: a full batch and its
// framing. The reader's buffer holds one whole.
const maxFrameLen = MaxBatchFlows*FlowRecordLen + frameOverhead

// NewStreamReader reads and validates the stream header.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReaderSize(r, maxFrameLen)
	hb, err := peek(br, HeaderLen)
	if err != nil {
		return nil, fmt.Errorf("replay: stream header: %w", err)
	}
	h, err := DecodeHeader(hb)
	if err != nil {
		return nil, err
	}
	br.Discard(HeaderLen)
	return &StreamReader{br: br, Header: h}, nil
}

// peek returns the next n <= maxFrameLen bytes of br without consuming them,
// failing as io.ReadFull would: io.EOF when the stream ends before the first
// of them, io.ErrUnexpectedEOF when it ends part-way.
func peek(br *bufio.Reader, n int) ([]byte, error) {
	b, err := br.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// Next returns the next flow frame, reading a new wire frame only once the
// current batch's records are exhausted. After the end-of-stream frame is
// returned (End true), subsequent calls return io.EOF.
func (sr *StreamReader) Next() (Frame, error) {
	if sr.done {
		return Frame{}, io.EOF
	}
	if sr.off == len(sr.payload) {
		if err := sr.readFrame(); err != nil {
			return Frame{}, err
		}
		if sr.done {
			return Frame{Seq: sr.batchSeq, End: true}, nil
		}
	}
	var fr Frame
	fr.Seq, fr.Raw = sr.record(&fr.Flow)
	return fr, nil
}

// readFrame reads the next wire frame and verifies its framing, sequence
// number and rolling checksum — the one frame parser, under Next and Consume
// alike. The frame is checked in the reader's buffer and then consumed, so
// its bytes stay where they are until the next read. A flow frame leaves its
// records in payload with off at 0 and batchSeq at the first record's index;
// the end frame leaves payload empty, sets done and puts the delivered count
// it carries (checked against Received) in batchSeq.
func (sr *StreamReader) readFrame() error {
	sr.payload, sr.off = nil, 0
	pre, err := peek(sr.br, framePrefixLen)
	if err != nil {
		return fmt.Errorf("replay: frame header: %w", err)
	}
	length := binary.BigEndian.Uint32(pre[0:4])
	seq := binary.BigEndian.Uint64(pre[4:12])
	if length == 0 {
		fr, err := peek(sr.br, frameOverhead)
		if err != nil {
			return fmt.Errorf("replay: end frame: %w", err)
		}
		if got := binary.BigEndian.Uint32(fr[framePrefixLen:]); got != sr.crc {
			return corruptf("final checksum %08x, want %08x", got, sr.crc)
		}
		if seq != sr.Received {
			return corruptf("end frame claims %d flows, received %d", seq, sr.Received)
		}
		sr.br.Discard(frameOverhead)
		if sr.Header.Flows > sr.nextSeq {
			sr.Tail = sr.Header.Flows - sr.nextSeq
		}
		sr.batchSeq = seq
		sr.done = true
		return nil
	}
	if length%FlowRecordLen != 0 {
		return corruptf("frame length %d is not a multiple of the %d-byte record", length, FlowRecordLen)
	}
	k := length / FlowRecordLen
	if k > MaxBatchFlows {
		return corruptf("batch of %d flows exceeds the %d-flow limit", k, MaxBatchFlows)
	}
	end := framePrefixLen + int(length)
	fr, err := peek(sr.br, end+4)
	if len(fr) < end {
		return fmt.Errorf("replay: frame payload: %w", err)
	}
	payload := fr[framePrefixLen:end:end]
	sr.crc = crc32.Update(sr.crc, crc32.IEEETable, payload)
	if err != nil {
		return fmt.Errorf("replay: frame checksum: %w", err)
	}
	if got := binary.BigEndian.Uint32(fr[end:]); got != sr.crc {
		return corruptf("rolling checksum %08x at seq %d, want %08x", got, seq, sr.crc)
	}
	if sr.started {
		if seq < sr.nextSeq {
			return corruptf("sequence %d went backwards (expected >= %d)", seq, sr.nextSeq)
		}
		sr.Gaps += seq - sr.nextSeq
	} else {
		sr.started = true
		sr.Head = seq
	}
	sr.br.Discard(end + 4)
	sr.nextSeq = seq + uint64(k)
	sr.batchSeq = seq
	sr.payload = payload
	return nil
}

// record decodes the next record of the current frame's payload into f and
// returns its sequence number and bytes. The caller has already verified
// off < len(payload); records inside a batch are consecutive flows, so the
// per-record sequence number is derived from the frame's first index.
func (sr *StreamReader) record(f *netflow.Flow) (seq uint64, raw []byte) {
	raw = sr.payload[sr.off : sr.off+FlowRecordLen]
	seq = sr.batchSeq + uint64(sr.off/FlowRecordLen)
	sr.off += FlowRecordLen
	decodeFlow(f, raw)
	sr.Received++
	return seq, raw
}
