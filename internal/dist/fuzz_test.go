package dist

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// memConn is the in-memory half of a connection readFrame and writeFrame
// need: reads come from r, writes go to w. With zero timeouts the wireConn
// never touches the embedded (nil) net.Conn.
type memConn struct {
	net.Conn
	r *bytes.Reader
	w bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// FuzzReadFrame feeds arbitrary bytes to the CSBD1 frame decoder. It must
// never panic, fail only with ErrCorruptRPC or a short read, never accept a
// payload over maxFramePayload, and an accepted frame must re-encode to
// exactly the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	encode := func(typ byte, req uint64, payload []byte) []byte {
		c := &memConn{}
		if err := newWireConn(c, 0, 0).writeFrame(typ, req, payload); err != nil {
			f.Fatal(err)
		}
		return c.w.Bytes()
	}
	hello, err := encodeHello("w1")
	if err != nil {
		f.Fatal(err)
	}
	good := encode(frameHello, 0, hello)
	f.Add(good)
	f.Add(encode(frameHeartbeat, 7, nil))
	f.Add(good[:len(good)-2])
	f.Add(append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]^1))
	f.Add([]byte{frameTask, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}) // 4 GiB length
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := newWireConn(&memConn{r: bytes.NewReader(data)}, 0, 0).readFrame()
		if err != nil {
			if !errors.Is(err, ErrCorruptRPC) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if len(fr.payload) > maxFramePayload {
			t.Fatalf("accepted a %d-byte payload", len(fr.payload))
		}
		n := frameHeaderLen + len(fr.payload) + 4
		if n > len(data) {
			t.Fatalf("frame of %d bytes decoded from %d", n, len(data))
		}
		if back := encode(fr.typ, fr.req, fr.payload); !bytes.Equal(back, data[:n]) {
			t.Fatalf("re-encoded frame differs from the %d bytes it was read from", n)
		}
	})
}
