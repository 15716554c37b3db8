package replay

import (
	"bytes"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csb/internal/netflow"
)

// timeline builds n flows whose start times never decrease: runs of
// simultaneous flows, sub-millisecond gaps and the odd long pause.
func timeline(rng *rand.Rand, n int) []netflow.Flow {
	flows := make([]netflow.Flow, n)
	var at int64
	for i := range flows {
		switch rng.IntN(4) {
		case 0: // same instant as the previous flow
		case 1:
			at += rng.Int64N(300)
		case 2:
			at += 1000 + rng.Int64N(5000)
		default:
			at += rng.Int64N(2_000_000)
		}
		flows[i] = netflow.Flow{SrcIP: uint32(i), StartMicros: at, EndMicros: at + 1}
	}
	return flows
}

// spanSchedule drives the emitter's span loop on a fake clock with no
// subscribers and returns the spans and every flow's release time.
func spanSchedule(t *testing.T, flows []netflow.Flow, opts Options) ([]span, []time.Time) {
	t.Helper()
	return spanScheduleOn(t, &fakeClock{t: time.Unix(0, 0)}, flows, opts)
}

// spanScheduleOn is spanSchedule on the given fake clock.
func spanScheduleOn(t *testing.T, fc *fakeClock, flows []netflow.Flow, opts Options) ([]span, []time.Time) {
	t.Helper()
	s, err := NewServer(flows, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.clk = fc.clock()
	p := newPacer(s.clk, s.opts)
	p.start(s.startMicros(0))
	var spans []span
	at := make([]time.Time, 0, len(flows))
	for i := 0; i < len(flows); {
		sp := s.nextSpan(p, i)
		if sp.first != i || sp.n < 1 || sp.n > s.opts.BatchLen {
			t.Fatalf("span %+v at flow %d (batch %d)", sp, i, s.opts.BatchLen)
		}
		spans = append(spans, sp)
		for range sp.n {
			at = append(at, fc.t)
		}
		i += sp.n
	}
	return spans, at
}

// TestSpanScheduleNeverEarly: whatever the timeline and pacing, a span
// releases no flow before the per-flow wait schedule would have, the run ends
// no later, and the token bucket's bound holds over every window of the run.
func TestSpanScheduleNeverEarly(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	for range 20 {
		flows := timeline(rng, 300)
		for _, speed := range []float64{0, 1, 100} {
			for _, rate := range []float64{0, 2000} {
				for _, burst := range []int{1, 16, 64} {
					opts := Options{Speed: speed, Rate: rate, Burst: burst, BatchLen: []int{2, 7, 64}[rng.IntN(3)]}

					// The per-flow schedule: wait for every flow in turn.
					fc := &fakeClock{t: time.Unix(0, 0)}
					p := newPacer(fc.clock(), opts)
					p.start(flows[0].StartMicros)
					want := make([]time.Time, len(flows))
					for i := range flows {
						p.wait(flows[i].StartMicros)
						want[i] = fc.t
					}

					_, got := spanSchedule(t, flows, opts)
					for i := range flows {
						if got[i].Before(want[i]) {
							t.Fatalf("%+v: flow %d released at %v, per-flow schedule says %v", opts, i, got[i], want[i])
						}
					}
					if last := len(flows) - 1; got[last].After(want[last]) {
						t.Fatalf("%+v: run ends at %v, per-flow schedule ends at %v", opts, got[last], want[last])
					}
					if rate == 0 {
						continue
					}
					for i := range got {
						for j := i; j < len(got); j++ {
							bound := float64(burst) + rate*got[j].Sub(got[i]).Seconds() + 0.01
							if n := float64(j - i + 1); n > bound {
								t.Fatalf("%+v: %v flows in %v (flows %d..%d), bucket allows %.2f",
									opts, n, got[j].Sub(got[i]), i, j, bound)
							}
						}
					}
				}
			}
		}
	}
}

// TestSpanLengths: a paced, caught-up run moves spans of one — batching never
// waits, at the emitter either — and an unpaced run moves full ones.
func TestSpanLengths(t *testing.T) {
	flows := make([]netflow.Flow, 1000)
	for i := range flows {
		flows[i].StartMicros = int64(i) * 1000 // 1 ms apart
	}
	spans, _ := spanSchedule(t, flows, Options{Speed: 1})
	if len(spans) != len(flows) {
		t.Fatalf("speed 1, flows 1 ms apart: %d spans for %d flows, want spans of 1", len(spans), len(flows))
	}
	for _, batch := range []int{1, 64, 300} {
		spans, _ := spanSchedule(t, flows, Options{BatchLen: batch})
		for i, sp := range spans {
			want := min(batch, len(flows)-i*batch)
			if sp.n != want {
				t.Fatalf("unpaced, batch %d: span %d holds %d flows, want %d", batch, i, sp.n, want)
			}
		}
	}
}

// TestSpanDropAccounting: under the drop policy a stalled subscriber loses
// whole spans, counted in flows — what it received plus what the server
// dropped is the run — while healthy subscribers stay byte-perfect. The fake
// clock only advances once the healthy subscribers have caught up, so none of
// them can ever lag into a drop.
func TestSpanDropAccounting(t *testing.T) {
	flows := testFlows(t, 20, 300, 21)
	want := EncodeFlows(flows)
	s, addr := serveFlows(t, flows, Options{Rate: 2000, Burst: 16, Policy: PolicyDrop, QueueLen: 8, BatchLen: 8})

	const healthy = 3
	var received atomic.Int64 // flows delivered to healthy subscribers, summed
	fc := &fakeClock{t: time.Unix(0, 0)}
	s.clk = fc.clock()
	advance := s.clk.sleep
	s.clk.sleep = func(d time.Duration) {
		for deadline := time.Now().Add(30 * time.Second); received.Load() < healthy*s.emitted.Load(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Error("healthy subscribers never caught up with the emitter")
				break
			}
		}
		advance(d)
	}

	results := make([]streamResult, healthy)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				results[i].err = err
				return
			}
			defer conn.Close()
			var buf bytes.Buffer
			results[i].stats, results[i].err = Consume(conn, func(_ uint64, _ netflow.Flow, raw []byte) error {
				buf.Write(raw)
				received.Add(1)
				return nil
			})
			results[i].payload = buf.Bytes()
		}()
	}
	if err := s.AwaitSubscribers(healthy, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The stalled subscriber: a pipe nobody reads until the run is over, so
	// its writer blocks on the stream header and its queue fills at once.
	server, stalled := net.Pipe()
	defer stalled.Close()
	s.Attach(server)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	wg.Wait()

	for i, r := range results {
		if r.err != nil || !r.stats.Clean || r.stats.Gaps != 0 || r.stats.Head != 0 || r.stats.Tail != 0 {
			t.Fatalf("healthy subscriber %d: err=%v stats=%+v", i, r.err, r.stats)
		}
		if !bytes.Equal(r.payload, want) {
			t.Fatalf("healthy subscriber %d: payload differs from EncodeFlows", i)
		}
	}
	st, err := Consume(stalled, nil)
	if err != nil || !st.Clean {
		t.Fatalf("stalled subscriber: err=%v stats=%+v", err, st)
	}
	dropped := s.Stats().Dropped
	if dropped == 0 || uint64(dropped)+st.Received != uint64(len(flows)) {
		t.Fatalf("dropped %d + received %d != %d flows emitted while attached", dropped, st.Received, len(flows))
	}
	if st.Head != 0 || st.Gaps+st.Tail != uint64(dropped) {
		t.Fatalf("stalled subscriber saw head=%d gaps=%d tail=%d, server dropped %d", st.Head, st.Gaps, st.Tail, dropped)
	}
}

func TestNewServerFromRecords(t *testing.T) {
	flows := testFlows(t, 20, 300, 22)
	slab := EncodeFlows(flows)

	if _, err := NewServerFromRecords(slab[:len(slab)-1], Options{}); err == nil ||
		!strings.Contains(err.Error(), "not a multiple of the 80-byte record") {
		t.Fatalf("ragged slab: %v", err)
	}
	swapped := slices.Clone(slab)
	last := len(swapped) - FlowRecordLen
	copy(swapped[:FlowRecordLen], slab[last:])
	copy(swapped[last:], slab[:FlowRecordLen])
	if _, err := NewServerFromRecords(swapped, Options{}); err == nil ||
		!strings.Contains(err.Error(), "flows not sorted by StartMicros (index 1)") {
		t.Fatalf("out-of-order records: %v", err)
	}
	s, err := NewServerFromRecords(slab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if &s.slab[0] != &slab[0] {
		t.Fatal("the slab was copied, not aliased")
	}
	s.Close()

	// On the wire the two constructors are one: an unpaced run frames full
	// spans, so the whole stream is deterministic down to the frame bounds.
	wire := func(s *Server, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		server, client := net.Pipe()
		defer client.Close()
		s.Attach(server)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(client)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a := wire(NewServer(flows, Options{}))
	b := wire(NewServerFromRecords(slab, Options{}))
	if !bytes.Equal(a, b) {
		t.Fatal("NewServer(flows) and NewServerFromRecords(EncodeFlows(flows)) stream different bytes")
	}
	if st, err := Consume(bytes.NewReader(a), nil); err != nil || !st.Clean || st.Received != uint64(len(flows)) {
		t.Fatalf("captured stream: err=%v stats=%+v", err, st)
	}
}

// TestAwaitSubscribersWakesOnAttach: the wait ends with the attach that
// satisfies it, not at the next tick of a polling loop, and still reports a
// timeout and a closed server.
func TestAwaitSubscribersWakesOnAttach(t *testing.T) {
	attach := func(s *Server) {
		server, client := net.Pipe()
		t.Cleanup(func() { client.Close() })
		go io.Copy(io.Discard, client)
		s.Attach(server)
	}
	// AwaitSubscribers parks on the channel subsState hands out. The attach
	// that satisfies the wait has closed it by the time it returns, so the
	// waiter runs at once: there is no tick for it to wait for.
	{
		s, err := NewServer(nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		attach(s)
		done := make(chan error, 1)
		go func() { done <- s.AwaitSubscribers(2, 0) }()
		_, _, changed := s.subsState()
		attach(s)
		select {
		case <-changed:
		default:
			t.Fatal("Attach returned without waking the subscriber waiters")
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		s.Close()
	}

	s, err := NewServer(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	attach(s)
	if err := s.AwaitSubscribers(2, 20*time.Millisecond); err == nil || !strings.Contains(err.Error(), "1 subscriber(s) after 20ms, want 2") {
		t.Fatalf("timeout: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.AwaitSubscribers(2, 0) }()
	time.Sleep(time.Millisecond) // lets the waiter park first; Close before it must give the same error
	s.Close()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "server closed") {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AwaitSubscribers slept through Close")
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain after close: %v", err)
	}
}
