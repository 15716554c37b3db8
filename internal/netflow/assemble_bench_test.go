package netflow

import (
	"testing"

	"csb/internal/pcap"
)

// BenchmarkFlowAssembler assembles the flows of a 100-host, 5,000-session
// synthetic trace.
func BenchmarkFlowAssembler(b *testing.B) {
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(100, 5000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		flows := Assemble(pkts, 0)
		if len(flows) == 0 {
			b.Fatal("no flows")
		}
	}
	b.ReportMetric(float64(len(pkts)), "packets")
}
