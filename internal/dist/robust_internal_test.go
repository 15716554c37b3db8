package dist

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"csb/internal/chaosnet"
	"csb/internal/cluster"
)

// TestWorkerBackoffResetsAfterHandshake: the reconnect wait doubles per
// consecutive failed session and starts over once a session has joined. The
// scripted coordinator hangs up on three connections before the handshake,
// completes it on the fourth, then hangs up on two more; the worker's clock
// is a recorder that fires at once, so nothing sleeps. (The parent never
// reset: its waits after the healthy session kept doubling to the cap.)
func TestWorkerBackoffResetsAfterHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for n := 1; ; n++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if n == 4 {
				wc := newWireConn(c, 2*time.Second, 2*time.Second)
				if hello, err := wc.readFrame(); err == nil {
					wc.writeFrame(frameHelloOK, hello.req, make([]byte, 8))
				}
			}
			c.Close()
		}
	}()

	w, err := NewWorker(WorkerConfig{Coordinator: ln.Addr().String(), Name: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delays []time.Duration
	w.after = func(d time.Duration) <-chan time.Time {
		delays = append(delays, d)
		if len(delays) == 6 {
			cancel()
		}
		fired := make(chan time.Time, 1) // one send, never blocks
		fired <- time.Time{}
		return fired
	}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	// Consecutive-failure counts behind each wait: 1, 2, 3, then the joined
	// session resets to 1, then 2, 3.
	for i, failures := range []int{1, 2, 3, 1, 2, 3} {
		if want := cluster.ReconnectBackoff.Delay("w1", failures); delays[i] != want {
			t.Errorf("wait %d = %v, want %v (failure %d of a run)", i, delays[i], want, failures)
		}
	}
	if base := cluster.ReconnectBackoff.Base; delays[3] < base/2 || delays[3] >= base*3/2 {
		t.Errorf("wait after the healthy session = %v, want about %v", delays[3], base)
	}
}

// TestWireCorruptionSurfacesTypedError: a chaos-corrupted CSBD1 frame must
// fail the CRC and surface ErrCorruptRPC — never silently deliver mangled
// payload bytes. This is the typed error that re-enters the dispatch retry
// budget in the coordinator.
func TestWireCorruptionSurfacesTypedError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	defer server.Close()

	// Corrupt every write on the client side; the server-side reader must
	// reject each frame with the typed error, not hand back bad bytes.
	faults := chaosnet.MustNew(chaosnet.Config{Seed: 11, CorruptRate: 1})
	sender := newWireConn(faults.Wrap(raw), 2*time.Second, 2*time.Second)
	defer sender.Close()
	receiver := newWireConn(server, 2*time.Second, 2*time.Second)

	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := sender.writeFrame(frameTask, 1, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := receiver.readFrame(); !errors.Is(err, ErrCorruptRPC) {
		t.Fatalf("read of corrupted frame: err = %v, want ErrCorruptRPC", err)
	}
}
