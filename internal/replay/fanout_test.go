package replay

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"csb/internal/netflow"
)

// fanoutFlows builds the ~20k-flow dataset the fan-out checks replay: a
// 60-host trace tiled end to end on the timeline.
func fanoutFlows(t testing.TB) []netflow.Flow {
	t.Helper()
	base := testFlows(t, 60, 1500, 20171010)
	k := 20_000/len(base) + 1
	span := base[len(base)-1].StartMicros - base[0].StartMicros + 1
	flows := make([]netflow.Flow, 0, len(base)*k)
	for i := 0; i < k; i++ {
		shift := int64(i) * span
		for _, f := range base {
			f.StartMicros += shift
			f.EndMicros += shift
			flows = append(flows, f)
		}
	}
	return flows
}

// fanout replays flows at full speed under the block policy to n loopback
// subscribers, framed at batchLen (0 = server default), and fails unless
// every subscriber received every flow.
func fanout(flows []netflow.Flow, n, batchLen int) error {
	srv, err := NewServer(flows, Options{Policy: PolicyBlock, BatchLen: batchLen})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)

	received := make([]uint64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := net.Dialer{Timeout: 10 * time.Second}
			conn, err := d.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			defer conn.Close()
			st, err := Consume(conn, nil)
			received[i], errs[i] = st.Received, err
		}(i)
	}
	if err := srv.AwaitSubscribers(n, 30*time.Second); err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	srv.Wait()
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			return fmt.Errorf("subscriber %d: %w", i, errs[i])
		}
		if received[i] != uint64(len(flows)) {
			return fmt.Errorf("subscriber %d received %d of %d flows", i, received[i], len(flows))
		}
	}
	return nil
}

// BenchmarkReplayBatchFanout measures the 4-subscriber loopback fan-out at
// the maximum wire batch; the gap to the DefaultBatchLen fan-out is the
// remaining per-frame cost.
func BenchmarkReplayBatchFanout(b *testing.B) {
	flows := fanoutFlows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fanout(flows, 4, MaxBatchFlows); err != nil {
			b.Fatal(err)
		}
	}
}

// replayFanoutAllocCeiling is the committed allocation budget for the
// default-batching 4-subscriber fan-out of ~20k flows. The measured figure is
// about 220 allocs/op at -cpu 1 and 2 — connections, goroutines and buffers,
// none per frame (it was ~6.8k while each frame's prefix and checksum scratch
// escaped, and ~357k with v1 single-flow frames); the ceiling leaves ~2x
// headroom for runtime noise while still failing loudly if a per-frame or
// per-flow allocation creeps back into the stream path.
const replayFanoutAllocCeiling = 500

// TestReplayFanoutAllocCeiling is the alloc-regression guard: the default
// replay fan-out must stay well under the v1 per-flow allocation regime.
func TestReplayFanoutAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full benchmark runs")
	}
	flows := fanoutFlows(t)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fanout(flows, 4, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := r.AllocsPerOp(); got > replayFanoutAllocCeiling {
		t.Fatalf("replay fan-out allocated %d allocs/op, ceiling %d — per-flow allocations crept back into the frame path", got, replayFanoutAllocCeiling)
	}
	t.Logf("replay fan-out: %d allocs/op (ceiling %d)", r.AllocsPerOp(), replayFanoutAllocCeiling)
}
