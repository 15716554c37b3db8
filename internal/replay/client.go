package replay

import (
	"io"

	"csb/internal/netflow"
)

// ConsumeStats summarizes one consumed stream.
type ConsumeStats struct {
	// Header is the stream header the server sent.
	Header Header
	// Received counts flow frames delivered; Gaps counts flows the server
	// skipped for this stream under its drop policy (sequence holes).
	Received uint64
	Gaps     uint64
	// Head counts flows the run emitted before this stream joined and Tail
	// the flows it held past the last one delivered (see StreamReader); with
	// them a clean stream accounts for the whole run:
	// Received + Gaps + Head + Tail == Header.Flows.
	Head uint64
	Tail uint64
	// Clean reports whether the stream ended with a verified end frame (as
	// opposed to the connection dying mid-run, e.g. a disconnect-policy
	// eviction or a server crash).
	Clean bool
}

// Consume reads a CSBS1 stream to completion, one wire frame at a time,
// invoking fn for every flow of it; raw aliases the frame's buffer and is
// valid only during the call. fn may be nil (useful for draining): records
// are then counted without being decoded, with framing, sequence and checksum
// verified all the same. Returning an error from fn aborts consumption. The
// returned stats are valid even on error.
func Consume(r io.Reader, fn func(seq uint64, f netflow.Flow, raw []byte) error) (ConsumeStats, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return ConsumeStats{}, err
	}
	var f netflow.Flow
	for {
		if err := sr.readFrame(); err != nil {
			return sr.stats(false), err
		}
		if sr.done {
			return sr.stats(true), nil
		}
		if fn == nil {
			sr.Received += uint64(len(sr.payload) / FlowRecordLen)
			continue
		}
		for sr.off < len(sr.payload) {
			seq, raw := sr.record(&f)
			if err := fn(seq, f, raw); err != nil {
				return sr.stats(false), err
			}
		}
	}
}

// stats summarizes the stream as read so far.
func (sr *StreamReader) stats(clean bool) ConsumeStats {
	return ConsumeStats{Header: sr.Header, Received: sr.Received, Gaps: sr.Gaps,
		Head: sr.Head, Tail: sr.Tail, Clean: clean}
}
