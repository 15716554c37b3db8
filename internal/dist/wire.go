// Package dist is the distributed execution subsystem of csb: a coordinator
// that registers worker processes over a framed TCP RPC protocol, routes
// remotable engine stage tasks to them by consistent hashing on
// (stage, task, attempt), and detects worker loss with heartbeat deadlines —
// surfacing it as task errors that the engine's existing retry/backoff
// budget turns into re-dispatches on the surviving workers (or local
// fallback).
//
// Determinism: the coordinator only ever ships task payloads whose results
// are pure functions of their bytes (internal/dist/task), and the engine's
// at-most-once commit slots (internal/cluster/fault.go) arbitrate between
// remote and retried attempts exactly as they do locally. Where
// a task runs — in process, on 1 worker, on N workers, or re-dispatched
// after a mid-stage worker kill — never changes the committed bytes.
//
// The wire format (CSBD1) follows the CSBS1 conventions of internal/replay:
// versioned magic, length-framed big-endian records, per-frame CRC32 (IEEE),
// typed corruption errors, and no pre-allocation from untrusted counts.
//
//	handshake: the worker opens the connection with a hello frame whose
//	payload begins "CSBD1"; the coordinator answers helloOK with the
//	assigned worker id.
//
//	frame:
//	  [0]     type
//	  [1:9]   request id, uint64 BE (0 on one-way frames; a response echoes
//	          the request's id)
//	  [9:13]  payload length, uint32 BE
//	  [13:..] payload
//	  [..+4]  CRC32 (IEEE) of the payload, uint32 BE
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// Wire-format constants.
const (
	// MagicRPC opens every CSBD1 hello payload.
	MagicRPC = "CSBD1"
	// frameHeaderLen is type + request id + payload length.
	frameHeaderLen = 1 + 8 + 4
	// maxFramePayload bounds one frame; larger tasks must chunk. 64 MiB
	// comfortably holds the largest row-encode partition csbd admits.
	maxFramePayload = 64 << 20
)

// Frame types.
const (
	frameHello     = 1 // worker -> coordinator: magic + name
	frameHelloOK   = 2 // coordinator -> worker: assigned worker id
	frameHeartbeat = 3 // worker -> coordinator, echoed back as the ack
	frameTask      = 4 // coordinator -> worker: kind + payload
	frameResult    = 5 // worker -> coordinator: task result bytes
	frameError     = 6 // either direction: error string for a request id
	// 7–10 carried the retired artifact replication and stay reserved: a
	// worker answers frameReplicate and frameReplicaGet from an older
	// coordinator with frameError and keeps the session.
	frameReplicate  = 7
	frameReplicaGet = 9
	frameDrain      = 11 // worker -> coordinator: draining, stop routing to me
)

// ErrCorruptRPC tags every decode failure caused by malformed CSBD1 bytes:
// bad magic, oversized frames, checksum mismatches. Callers distinguish
// corruption from plain connection loss (io.EOF and friends) with errors.Is.
var ErrCorruptRPC = errors.New("corrupt rpc stream")

// corruptf builds an ErrCorruptRPC-tagged error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("dist: "+format+": %w", append(args, ErrCorruptRPC)...)
}

// frame is one decoded CSBD1 frame.
type frame struct {
	typ     byte
	req     uint64
	payload []byte
}

// wireConn wraps one TCP connection with CSBD1 framing: a write mutex so
// concurrent senders interleave whole frames, and deadline-bounded reads so
// a silent peer can never hang the read loop forever.
type wireConn struct {
	c  net.Conn
	mu sync.Mutex // serializes writeFrame

	// readTimeout bounds every readFrame; heartbeats flow in both
	// directions, so a healthy peer always produces traffic within it.
	readTimeout time.Duration
	// writeTimeout bounds every writeFrame.
	writeTimeout time.Duration
}

func newWireConn(c net.Conn, readTimeout, writeTimeout time.Duration) *wireConn {
	return &wireConn{c: c, readTimeout: readTimeout, writeTimeout: writeTimeout}
}

// writeFrame sends one frame atomically with respect to other writers.
func (w *wireConn) writeFrame(typ byte, req uint64, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("dist: frame payload %d exceeds %d bytes", len(payload), maxFramePayload)
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = typ
	binary.BigEndian.PutUint64(hdr[1:9], req)
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.writeTimeout > 0 {
		if err := w.c.SetWriteDeadline(time.Now().Add(w.writeTimeout)); err != nil {
			return err
		}
	}
	// One contiguous write per section; the kernel coalesces, and a partial
	// write surfaces as an error rather than a torn frame.
	if _, err := w.c.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.c.Write(payload); err != nil {
			return err
		}
	}
	_, err := w.c.Write(sum[:])
	return err
}

// readFrame reads and verifies one frame, bounded by the read timeout.
func (w *wireConn) readFrame() (frame, error) {
	if w.readTimeout > 0 {
		if err := w.c.SetReadDeadline(time.Now().Add(w.readTimeout)); err != nil {
			return frame{}, err
		}
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(w.c, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > maxFramePayload {
		return frame{}, corruptf("frame payload %d exceeds %d bytes", n, maxFramePayload)
	}
	f := frame{typ: hdr[0], req: binary.BigEndian.Uint64(hdr[1:9])}
	if n > 0 {
		f.payload = make([]byte, n)
		if _, err := io.ReadFull(w.c, f.payload); err != nil {
			return frame{}, err
		}
	}
	var sum [4]byte
	if _, err := io.ReadFull(w.c, sum[:]); err != nil {
		return frame{}, err
	}
	if got, want := binary.BigEndian.Uint32(sum[:]), crc32.ChecksumIEEE(f.payload); got != want {
		return frame{}, corruptf("frame checksum %08x, want %08x", got, want)
	}
	return f, nil
}

func (w *wireConn) Close() error { return w.c.Close() }

// encodeHello builds a hello payload: magic + worker name.
func encodeHello(name string) ([]byte, error) {
	if len(name) > 255 {
		return nil, fmt.Errorf("dist: worker name %q too long", name)
	}
	b := make([]byte, 0, len(MagicRPC)+1+len(name))
	b = append(b, MagicRPC...)
	b = append(b, byte(len(name)))
	b = append(b, name...)
	return b, nil
}

// decodeHello validates a hello payload and returns the worker name.
func decodeHello(p []byte) (string, error) {
	if len(p) < len(MagicRPC)+1 {
		return "", corruptf("short hello (%d bytes)", len(p))
	}
	if string(p[:len(MagicRPC)]) != MagicRPC {
		return "", corruptf("bad hello magic %q", p[:len(MagicRPC)])
	}
	n := int(p[len(MagicRPC)])
	rest := p[len(MagicRPC)+1:]
	if len(rest) != n {
		return "", corruptf("hello name length %d, have %d bytes", n, len(rest))
	}
	return string(rest), nil
}

// encodeTask builds a task payload: kind + task bytes.
func encodeTask(kind string, payload []byte) ([]byte, error) {
	if len(kind) == 0 || len(kind) > 255 {
		return nil, fmt.Errorf("dist: bad task kind %q", kind)
	}
	b := make([]byte, 0, 1+len(kind)+len(payload))
	b = append(b, byte(len(kind)))
	b = append(b, kind...)
	b = append(b, payload...)
	return b, nil
}

// decodeTask splits a task payload into kind and task bytes.
func decodeTask(p []byte) (string, []byte, error) {
	if len(p) < 1 {
		return "", nil, corruptf("empty task frame")
	}
	n := int(p[0])
	if len(p) < 1+n {
		return "", nil, corruptf("task kind length %d, have %d bytes", n, len(p)-1)
	}
	return string(p[1 : 1+n]), p[1+n:], nil
}
