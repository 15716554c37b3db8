package dist

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// pipePair returns two framed ends of an in-memory connection.
func pipePair() (*wireConn, *wireConn) {
	a, b := net.Pipe()
	return newWireConn(a, time.Second, time.Second), newWireConn(b, time.Second, time.Second)
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	payload := bytes.Repeat([]byte{0xab, 0xcd}, 1000)
	go func() { a.writeFrame(frameTask, 42, payload) }()
	f, err := b.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != frameTask || f.req != 42 || !bytes.Equal(f.payload, payload) {
		t.Fatalf("frame = type %d req %d (%d bytes)", f.typ, f.req, len(f.payload))
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	go func() { a.writeFrame(frameHeartbeat, 0, nil) }()
	f, err := b.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != frameHeartbeat || f.req != 0 || len(f.payload) != 0 {
		t.Fatalf("frame = %+v", f)
	}
}

func TestFrameCorruptChecksum(t *testing.T) {
	ac, bc := net.Pipe()
	b := newWireConn(bc, time.Second, time.Second)
	defer ac.Close()
	defer b.Close()
	go func() {
		// Hand-build a frame with a wrong CRC.
		raw := []byte{
			frameTask,
			0, 0, 0, 0, 0, 0, 0, 7, // req
			0, 0, 0, 2, // len
			0x10, 0x20, // payload
			0xde, 0xad, 0xbe, 0xef, // bogus crc
		}
		ac.Write(raw)
	}()
	if _, err := b.readFrame(); !errors.Is(err, ErrCorruptRPC) {
		t.Fatalf("err = %v, want ErrCorruptRPC", err)
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	ac, bc := net.Pipe()
	b := newWireConn(bc, time.Second, time.Second)
	defer ac.Close()
	defer b.Close()
	go func() {
		raw := []byte{frameTask, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}
		ac.Write(raw)
	}()
	if _, err := b.readFrame(); !errors.Is(err, ErrCorruptRPC) {
		t.Fatalf("err = %v, want ErrCorruptRPC", err)
	}
	a := newWireConn(ac, time.Second, time.Second)
	if err := a.writeFrame(frameTask, 1, make([]byte, maxFramePayload+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
}

func TestFrameReadDeadline(t *testing.T) {
	ac, bc := net.Pipe()
	defer ac.Close()
	b := newWireConn(bc, 30*time.Millisecond, time.Second)
	defer b.Close()
	start := time.Now()
	if _, err := b.readFrame(); err == nil {
		t.Fatal("read from a silent peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("read blocked %v despite deadline", elapsed)
	}
}

func TestHelloCodec(t *testing.T) {
	p, err := encodeHello("w1")
	if err != nil {
		t.Fatal(err)
	}
	name, err := decodeHello(p)
	if err != nil || name != "w1" {
		t.Fatalf("decode = %q, %v", name, err)
	}
	if _, err := decodeHello([]byte("XXXXX\x02w1")); !errors.Is(err, ErrCorruptRPC) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := decodeHello(p[:3]); !errors.Is(err, ErrCorruptRPC) {
		t.Fatalf("short hello: %v", err)
	}
}

func TestTaskCodec(t *testing.T) {
	p, err := encodeTask("kron.drop", []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	kind, body, err := decodeTask(p)
	if err != nil || kind != "kron.drop" || !bytes.Equal(body, []byte{1, 2, 3}) {
		t.Fatalf("decode = %q %v %v", kind, body, err)
	}
	if _, err := encodeTask("", nil); err == nil {
		t.Fatal("empty kind accepted")
	}
	if _, _, err := decodeTask([]byte{200, 'x'}); !errors.Is(err, ErrCorruptRPC) {
		t.Fatalf("truncated kind: %v", err)
	}
}
