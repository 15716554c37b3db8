package bench

import (
	"testing"

	"csb/internal/netflow"
	"csb/internal/pcap"
	"csb/internal/replay"
)

// fanoutFlows builds the ~20k-flow dataset the fan-out benchmarks replay.
func fanoutFlows(t testing.TB) []netflow.Flow {
	t.Helper()
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(60, 1500, DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	flows := netflow.Assemble(pkts, 0)
	if len(flows) == 0 {
		t.Fatal("no flows assembled")
	}
	return TileFlows(flows, 20_000/len(flows)+1)
}

// BenchmarkReplayBatchFanout measures the 4-subscriber loopback fan-out at
// the maximum wire batch; the gap to the DefaultBatchLen fan-out is the
// remaining per-frame cost.
func BenchmarkReplayBatchFanout(b *testing.B) {
	flows := fanoutFlows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := ReplayFanoutBatch(flows, []int{4}, replay.MaxBatchFlows)
		if err != nil {
			b.Fatal(err)
		}
		if pts[0].DeliveredMin != uint64(len(flows)) {
			b.Fatalf("delivered %d of %d flows", pts[0].DeliveredMin, len(flows))
		}
	}
}

// replayFanoutAllocCeiling is the committed allocation budget for the
// default-batching 4-subscriber fan-out of ~20k flows. The measured figure is
// 221 allocs/op at -cpu 1 and 2 — connections, goroutines and buffers, none
// per frame (it was ~6.8k while each frame's prefix and checksum scratch
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
			if _, err := ReplayFanout(flows, []int{4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := r.AllocsPerOp(); got > replayFanoutAllocCeiling {
		t.Fatalf("replay fan-out allocated %d allocs/op, ceiling %d — per-flow allocations crept back into the frame path", got, replayFanoutAllocCeiling)
	}
	t.Logf("replay fan-out: %d allocs/op (ceiling %d)", r.AllocsPerOp(), replayFanoutAllocCeiling)
}
