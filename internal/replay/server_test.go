package replay

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"csb/internal/netflow"
)

// collectStream dials addr and consumes the whole stream, concatenating the
// raw flow payloads.
type streamResult struct {
	payload []byte
	stats   ConsumeStats
	err     error
}

func collectStream(t *testing.T, addr string) streamResult {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return streamResult{err: err}
	}
	defer conn.Close()
	var buf bytes.Buffer
	st, err := Consume(conn, func(_ uint64, _ netflow.Flow, raw []byte) error {
		buf.Write(raw)
		return nil
	})
	return streamResult{payload: buf.Bytes(), stats: st, err: err}
}

// serveFlows starts a server on loopback and returns it with its address.
func serveFlows(t *testing.T, flows []netflow.Flow, opts Options) (*Server, string) {
	t.Helper()
	s, err := NewServer(flows, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(s.Close)
	return s, ln.Addr().String()
}

// TestReplayByteIdentityAcrossSubscribers is the core acceptance check: at
// speed 0 under the default block policy, every subscriber's concatenated
// payloads are byte-identical to the source artifact's flow section, for
// several subscriber counts.
func TestReplayByteIdentityAcrossSubscribers(t *testing.T) {
	flows := testFlows(t, 30, 1200, 11)
	want := EncodeFlows(flows)
	var sha [32]byte
	sha[0], sha[31] = 0xab, 0xcd
	for _, n := range []int{1, 4, 8} {
		s, addr := serveFlows(t, flows, Options{Speed: 0, Policy: PolicyBlock, ArtifactSHA: sha})
		results := make([]streamResult, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = collectStream(t, addr)
			}(i)
		}
		if err := s.AwaitSubscribers(n, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for i, r := range results {
			if r.err != nil {
				t.Fatalf("n=%d subscriber %d: %v", n, i, r.err)
			}
			if !r.stats.Clean || r.stats.Gaps != 0 {
				t.Fatalf("n=%d subscriber %d stats: %+v", n, i, r.stats)
			}
			if r.stats.Header.ArtifactSHA != sha || r.stats.Header.Flows != uint64(len(flows)) {
				t.Fatalf("n=%d subscriber %d header: %+v", n, i, r.stats.Header)
			}
			if !bytes.Equal(r.payload, want) {
				t.Fatalf("n=%d subscriber %d: payload differs from artifact flow section", n, i)
			}
		}
		st := s.Stats()
		if st.Emitted != int64(len(flows)) || st.Dropped != 0 || st.Disconnected != 0 {
			t.Fatalf("n=%d server stats: %+v", n, st)
		}
		s.Close()
	}
}

// stalledSubscriber attaches a pipe-backed subscriber that reads the stream
// header and then never reads again, deterministically filling its queue.
func stalledSubscriber(t *testing.T, s *Server) net.Conn {
	t.Helper()
	server, client := net.Pipe()
	s.Attach(server)
	var hdr [HeaderLen]byte
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := readFull(client, hdr[:]); err != nil {
		t.Fatalf("stalled subscriber header: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

func readFull(c net.Conn, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := c.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestReplaySoakStalledSubscriberDisconnect is the soak scenario: 8 healthy
// subscribers plus one deliberately stalled one under the disconnect policy.
// The stalled subscriber is evicted, the run completes without it, and every
// healthy subscriber's bytes match the on-disk artifact's flow section.
func TestReplaySoakStalledSubscriberDisconnect(t *testing.T) {
	flows := testFlows(t, 30, 1200, 12)

	// The on-disk artifact whose flow section is the identity reference.
	path := filepath.Join(t.TempDir(), "soak.csbf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFlowFile(f, flows); err != nil {
		t.Fatal(err)
	}
	f.Close()
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := disk[FlowFileHeaderLen:]

	// Rate-limit emission so healthy TCP subscribers trivially keep up
	// while the stalled pipe subscriber overflows its queue immediately.
	s, addr := serveFlows(t, flows, Options{
		Rate: 2000, Burst: 16, Policy: PolicyDisconnect, QueueLen: 64,
	})
	const healthy = 8
	results := make([]streamResult, healthy)
	var wg sync.WaitGroup
	for i := 0; i < healthy; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = collectStream(t, addr)
		}(i)
	}
	if err := s.AwaitSubscribers(healthy, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	stalled := stalledSubscriber(t, s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	// The run must finish despite the stalled subscriber: a watchdog far
	// looser than the expected runtime but far tighter than "hangs".
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("run stalled: lag policy failed to isolate the slow subscriber")
	}
	wg.Wait()

	for i, r := range results {
		if r.err != nil || !r.stats.Clean || r.stats.Gaps != 0 {
			t.Fatalf("healthy subscriber %d: err=%v stats=%+v", i, r.err, r.stats)
		}
		if !bytes.Equal(r.payload, want) {
			t.Fatalf("healthy subscriber %d: bytes differ from on-disk flow section", i)
		}
	}
	st := s.Stats()
	if st.Disconnected == 0 {
		t.Fatalf("stalled subscriber not disconnected: %+v", st)
	}
	if st.Emitted != int64(len(flows)) {
		t.Fatalf("emitted %d of %d flows", st.Emitted, len(flows))
	}
	// The evicted connection is actually dead: reads now fail.
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1<<16)
	for {
		if _, err := stalled.Read(buf); err != nil {
			break
		}
	}
}

// TestReplayStalledSubscriberDrop: same soak shape under the drop policy —
// the laggard stays connected but loses frames (counted), healthy
// subscribers stay byte-perfect.
func TestReplayStalledSubscriberDrop(t *testing.T) {
	flows := testFlows(t, 30, 1200, 13)
	want := EncodeFlows(flows)
	s, addr := serveFlows(t, flows, Options{
		Rate: 2000, Burst: 16, Policy: PolicyDrop, QueueLen: 64,
	})
	const healthy = 4
	results := make([]streamResult, healthy)
	var wg sync.WaitGroup
	for i := 0; i < healthy; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = collectStream(t, addr)
		}(i)
	}
	if err := s.AwaitSubscribers(healthy, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	stalled := stalledSubscriber(t, s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("run stalled under drop policy")
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil || !r.stats.Clean || r.stats.Gaps != 0 || !bytes.Equal(r.payload, want) {
			t.Fatalf("healthy subscriber %d: err=%v stats=%+v", i, r.err, r.stats)
		}
		if r.stats.Received+r.stats.Gaps+r.stats.Head+r.stats.Tail != r.stats.Header.Flows {
			t.Fatalf("healthy subscriber %d accounting: %+v", i, r.stats)
		}
	}
	// The laggard wakes up after the run: what it still gets plus what it
	// lost — between frames (Gaps) or past its last one (Tail) — is the run.
	hdr := EncodeHeader(Header{Flows: uint64(len(flows))})
	late, err := Consume(io.MultiReader(bytes.NewReader(hdr[:]), stalled), nil)
	if err != nil || !late.Clean {
		t.Fatalf("stalled subscriber: err=%v stats=%+v", err, late)
	}
	if late.Received+late.Gaps+late.Head+late.Tail != late.Header.Flows || late.Head != 0 {
		t.Fatalf("stalled subscriber accounting: %+v", late)
	}
	if lost := s.Stats().Dropped; late.Gaps+late.Tail != uint64(lost) {
		t.Fatalf("stalled subscriber lost %d+%d flows, server dropped %d", late.Gaps, late.Tail, lost)
	}
	st := s.Stats()
	if st.Dropped == 0 {
		t.Fatalf("no drops recorded for the stalled subscriber: %+v", st)
	}
	if st.Disconnected != 0 {
		t.Fatalf("drop policy disconnected someone: %+v", st)
	}
}

// TestReplayLateSubscriberJoinsMidRun: a subscriber connecting after the run
// started receives a suffix of the stream starting at the then-current
// sequence, ending cleanly.
func TestReplayLateSubscriberJoinsMidRun(t *testing.T) {
	flows := testFlows(t, 30, 1200, 14)
	s, addr := serveFlows(t, flows, Options{Rate: 1500, Burst: 1, QueueLen: 64, Policy: PolicyBlock})
	early := make(chan streamResult, 1)
	go func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			early <- streamResult{err: err}
			return
		}
		defer conn.Close()
		st, err := Consume(conn, nil)
		early <- streamResult{stats: st, err: err}
	}()
	if err := s.AwaitSubscribers(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Join once a meaningful prefix has been emitted.
	for s.Stats().Emitted < int64(len(flows)/4) {
		time.Sleep(time.Millisecond)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var firstSeq uint64
	var got uint64
	st, err := Consume(conn, func(seq uint64, _ netflow.Flow, _ []byte) error {
		if got == 0 {
			firstSeq = seq
		}
		got++
		return nil
	})
	if err != nil || !st.Clean {
		t.Fatalf("late subscriber: err=%v stats=%+v", err, st)
	}
	if got > 0 && firstSeq == 0 {
		t.Fatal("late subscriber saw the stream from the beginning")
	}
	if firstSeq+got != uint64(len(flows)) {
		t.Fatalf("late subscriber: first=%d received=%d flows=%d", firstSeq, got, len(flows))
	}
	// The missed prefix is accounted for, not silently absent: a late joiner
	// no longer looks like a complete stream.
	if st.Head != firstSeq || st.Head == 0 || st.Received+st.Gaps+st.Head+st.Tail != st.Header.Flows {
		t.Fatalf("late subscriber accounting: first=%d stats=%+v", firstSeq, st)
	}
	r := <-early
	if r.err != nil || !r.stats.Clean || r.stats.Received != uint64(len(flows)) || r.stats.Head != 0 || r.stats.Tail != 0 {
		t.Fatalf("early subscriber: err=%v stats=%+v", r.err, r.stats)
	}
}

// TestReplaySubscriberAfterRunEnds gets an immediate clean end frame.
func TestReplaySubscriberAfterRunEnds(t *testing.T) {
	flows := testFlows(t, 20, 300, 15)
	s, addr := serveFlows(t, flows, Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	r := collectStream(t, addr)
	if r.err != nil || !r.stats.Clean || r.stats.Received != 0 {
		t.Fatalf("post-run subscriber: err=%v stats=%+v", r.err, r.stats)
	}
}

func TestReplayRejectsUnsortedFlows(t *testing.T) {
	flows := []netflow.Flow{{StartMicros: 10}, {StartMicros: 5}}
	if _, err := NewServer(flows, Options{}); err == nil {
		t.Fatal("unsorted dataset accepted")
	}
}

// TestReplayCloseMidRun aborts a paced run promptly and tears everything
// down without deadlock.
func TestReplayCloseMidRun(t *testing.T) {
	flows := testFlows(t, 30, 1200, 16)
	s, addr := serveFlows(t, flows, Options{Rate: 200, Burst: 1}) // slow run
	resCh := make(chan streamResult, 1)
	go func() { resCh <- collectStream(t, addr) }()
	if err := s.AwaitSubscribers(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for s.Stats().Emitted < 10 {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	select {
	case r := <-resCh:
		if r.err == nil && r.stats.Received == uint64(len(flows)) {
			t.Fatal("subscriber received the whole run after an early Close")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("subscriber hung after Close")
	}
	if !s.Done() {
		t.Fatal("server not done after Close")
	}
}
