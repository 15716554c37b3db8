package chaosnet

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"
)

// tcpPair returns a connected loopback (client, server) pair.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-ch
	if srv.err != nil {
		t.Fatal(srv.err)
	}
	t.Cleanup(func() { cli.Close(); srv.c.Close() })
	return cli, srv.c
}

// transfer writes msgs through w and returns everything readable from r
// until w is closed.
func transfer(t *testing.T, w, r net.Conn, msgs [][]byte) ([]byte, error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		for _, m := range msgs {
			if _, err := w.Write(m); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
		w.Close()
	}()
	got, readErr := io.ReadAll(r)
	if readErr != nil {
		return got, readErr
	}
	return got, <-errc
}

func TestZeroConfigIsTransparent(t *testing.T) {
	cli, srv := tcpPair(t)
	f := MustNew(Config{})
	msgs := [][]byte{[]byte("hello "), []byte("world"), bytes.Repeat([]byte{0x5A}, 1<<16)}
	var want []byte
	for _, m := range msgs {
		want = append(want, m...)
	}
	got, err := transfer(t, f.Wrap(cli), srv, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes mangled with zero config: got %d bytes, want %d", len(got), len(want))
	}
	st := f.Stats()
	if st.Corrupted != 0 || st.Resets != 0 || st.Partitions != 0 {
		t.Fatalf("zero config injected faults: %+v", st)
	}
}

// TestCorruptionIsDeterministic runs the same scripted writes twice under the
// same seed and asserts the mangled output bytes are identical — the property
// the golden-digest chaos matrix relies on.
func TestCorruptionIsDeterministic(t *testing.T) {
	run := func() []byte {
		cli, srv := tcpPair(t)
		f := MustNew(Config{Seed: 42, CorruptRate: 0.5})
		msgs := make([][]byte, 20)
		for i := range msgs {
			msgs[i] = bytes.Repeat([]byte{byte(i)}, 64)
		}
		got, err := transfer(t, f.Wrap(cli), srv, msgs)
		if err != nil {
			t.Fatal(err)
		}
		if f.Stats().Corrupted == 0 {
			t.Fatal("corrupt=0.5 over 20 writes injected nothing")
		}
		return got
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different corruption schedules")
	}
	// A different seed must corrupt differently (same clean payload).
	cli, srv := tcpPair(t)
	f := MustNew(Config{Seed: 43, CorruptRate: 0.5})
	msgs := make([][]byte, 20)
	for i := range msgs {
		msgs[i] = bytes.Repeat([]byte{byte(i)}, 64)
	}
	c, err := transfer(t, f.Wrap(cli), srv, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corruption")
	}
}

func TestResetSurfacesTypedError(t *testing.T) {
	cli, srv := tcpPair(t)
	f := MustNew(Config{Seed: 1, ResetRate: 1})
	wc := f.Wrap(cli)
	_, err := wc.Write([]byte("doomed"))
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("err = %v, want ErrInjectedReset", err)
	}
	// Peer sees the connection die, not silent success.
	srv.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, rerr := srv.Read(buf); rerr != nil {
			return
		}
	}
}

func TestPartitionBlackholesUntilDeadline(t *testing.T) {
	cli, srv := tcpPair(t)
	f := MustNew(Config{Seed: 1, PartitionRate: 1})
	wc := f.Wrap(cli)
	// Write "succeeds" but delivers nothing.
	if n, err := wc.Write([]byte("into the void")); err != nil || n != 13 {
		t.Fatalf("partitioned write = (%d, %v), want silent success", n, err)
	}
	srv.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	buf := make([]byte, 64)
	n, err := srv.Read(buf)
	var ne net.Error
	if n != 0 || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read through partition = (%d, %v), want deadline timeout", n, err)
	}
	// Read side of the partitioned conn also starves until its deadline.
	wc.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	go srv.Write([]byte("lost"))
	if _, err := wc.Read(buf); err == nil {
		t.Fatal("partitioned read returned data")
	}
}

func TestGraceOpsDelayDestructiveFaults(t *testing.T) {
	cli, srv := tcpPair(t)
	f := MustNew(Config{Seed: 9, ResetRate: 1, GraceOps: 3})
	wc := f.Wrap(cli)
	done := make(chan struct{})
	go func() { io.Copy(io.Discard, srv); close(done) }()
	for i := 0; i < 3; i++ {
		if _, err := wc.Write([]byte("ok")); err != nil {
			t.Errorf("write %d inside grace window failed: %v", i, err)
		}
	}
	if _, err := wc.Write([]byte("boom")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("post-grace write err = %v, want ErrInjectedReset", err)
	}
	<-done
}

func TestDripAndBandwidthPreserveBytes(t *testing.T) {
	cli, srv := tcpPair(t)
	f := MustNew(Config{Seed: 2, Drip: 7, BandwidthBPS: 1 << 20, Latency: time.Millisecond, Jitter: time.Millisecond})
	payload := bytes.Repeat([]byte("0123456789"), 400)
	got, err := transfer(t, f.Wrap(cli), srv, [][]byte{payload})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("drip+bandwidth shaping altered bytes")
	}
	if f.Stats().DelayedOps == 0 {
		t.Fatal("no delays recorded")
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	f := MustNew(Config{Seed: 3, ResetRate: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wln := f.Listen(ln)
	defer wln.Close()
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 16)
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		c.Read(buf)
	}()
	sc, err := wln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("accepted conn not fault-wrapped: err = %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("latency=2ms,jitter=5ms,corrupt=0.01,reset=0.02,partition=0.005,bps=1048576,drip=512,seed=7,grace=4")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed: 7, Latency: 2 * time.Millisecond, Jitter: 5 * time.Millisecond,
		BandwidthBPS: 1 << 20, Drip: 512,
		CorruptRate: 0.01, ResetRate: 0.02, PartitionRate: 0.005, GraceOps: 4,
	}
	if cfg != want {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
	for _, bad := range []string{"", "latency", "latency=xx", "nope=1", "corrupt=1.5", "latency=-1ms"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestNewRejectsBadConfig covers the values a plain range check lets
// through: NaN rates, which no draw ever falls below, and a negative grace,
// which would exempt every operation once widened to uint64.
func TestNewRejectsBadConfig(t *testing.T) {
	bad := map[string]Config{
		"NaN corrupt":       {CorruptRate: math.NaN()},
		"NaN reset":         {ResetRate: math.NaN()},
		"NaN partition":     {PartitionRate: math.NaN()},
		"+Inf corrupt":      {CorruptRate: math.Inf(1)},
		"negative reset":    {ResetRate: -0.1},
		"partition above 1": {PartitionRate: 1.01},
		"negative grace":    {GraceOps: -3},
		"negative drip":     {Drip: -1},
	}
	for name, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, spec := range []string{"corrupt=NaN", "reset=nan", "partition=NaN", "grace=-3", "corrupt=-0.5", "reset=+Inf"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
	// The bounds themselves are valid.
	for name, cfg := range map[string]Config{
		"zero value": {},
		"rates at 1": {CorruptRate: 1, ResetRate: 1, PartitionRate: 1},
		"grace 0":    {GraceOps: 0, ResetRate: 0.5},
	} {
		if _, err := New(cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzParseSpec checks that no spec panics the parser and that every
// accepted spec yields a Config New accepts again, with every rate in
// [0, 1] and no negative grace.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"latency=2ms,jitter=5ms,corrupt=0.01,reset=0.02,partition=0.005,bps=1048576,drip=512,seed=7,grace=4",
		"seed=7,corrupt=0.01,grace=8",
		"corrupt=NaN", "grace=-3", "partition=1", "", "=", ",,",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if _, err := New(cfg); err != nil {
			t.Fatalf("ParseSpec(%q) accepted %+v, New rejects it: %v", spec, cfg, err)
		}
		for _, r := range []float64{cfg.CorruptRate, cfg.ResetRate, cfg.PartitionRate} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("ParseSpec(%q) accepted rate %v", spec, r)
			}
		}
		if cfg.GraceOps < 0 {
			t.Fatalf("ParseSpec(%q) accepted grace %d", spec, cfg.GraceOps)
		}
	})
}
