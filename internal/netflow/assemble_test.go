package netflow

import (
	"testing"

	"csb/internal/graph"
	"csb/internal/pcap"
)

// pkt builds a test packet.
func pkt(ts int64, src, dst uint32, proto uint8, sp, dp uint16, flags pcap.TCPFlags, size int64) pcap.PacketInfo {
	return pcap.PacketInfo{TsMicros: ts, SrcIP: src, DstIP: dst, Protocol: proto,
		SrcPort: sp, DstPort: dp, Flags: flags, Len: size}
}

const (
	hostA = 0x0a000001
	hostB = 0x0a000002
)

func tcpSession(start int64) []pcap.PacketInfo {
	return []pcap.PacketInfo{
		pkt(start, hostA, hostB, pcap.IPProtoTCP, 40000, 80, pcap.FlagSYN, 40),
		pkt(start+1000, hostB, hostA, pcap.IPProtoTCP, 80, 40000, pcap.FlagSYN|pcap.FlagACK, 40),
		pkt(start+2000, hostA, hostB, pcap.IPProtoTCP, 40000, 80, pcap.FlagACK, 40),
		pkt(start+3000, hostA, hostB, pcap.IPProtoTCP, 40000, 80, pcap.FlagACK|pcap.FlagPSH, 500),
		pkt(start+4000, hostB, hostA, pcap.IPProtoTCP, 80, 40000, pcap.FlagACK|pcap.FlagPSH, 1400),
		pkt(start+5000, hostA, hostB, pcap.IPProtoTCP, 40000, 80, pcap.FlagFIN|pcap.FlagACK, 40),
		pkt(start+6000, hostB, hostA, pcap.IPProtoTCP, 80, 40000, pcap.FlagFIN|pcap.FlagACK, 40),
		pkt(start+7000, hostA, hostB, pcap.IPProtoTCP, 40000, 80, pcap.FlagACK, 40),
	}
}

func TestAssembleNormalTCPSession(t *testing.T) {
	flows := Assemble(tcpSession(1e6), 0)
	if len(flows) != 1 {
		t.Fatalf("got %d flows, want 1", len(flows))
	}
	f := flows[0]
	if f.SrcIP != hostA || f.DstIP != hostB {
		t.Errorf("originator wrong: %x -> %x", f.SrcIP, f.DstIP)
	}
	if f.Protocol != graph.ProtoTCP || f.State != graph.StateSF {
		t.Errorf("proto/state = %v/%v, want tcp/SF", f.Protocol, f.State)
	}
	if f.OutPkts != 5 || f.InPkts != 3 {
		t.Errorf("pkts = %d/%d, want 5/3", f.OutPkts, f.InPkts)
	}
	if f.OutBytes != 40+40+500+40+40 || f.InBytes != 40+1400+40 {
		t.Errorf("bytes = %d/%d", f.OutBytes, f.InBytes)
	}
	if f.DurationMs() != 7 {
		t.Errorf("duration = %dms, want 7", f.DurationMs())
	}
	if f.SYNCount != 2 {
		t.Errorf("SYNCount = %d, want 2", f.SYNCount)
	}
	if f.ACKCount != 7 {
		t.Errorf("ACKCount = %d, want 7", f.ACKCount)
	}
}

func TestAssembleS0(t *testing.T) {
	flows := Assemble([]pcap.PacketInfo{
		pkt(0, hostA, hostB, pcap.IPProtoTCP, 40000, 80, pcap.FlagSYN, 40),
		pkt(1e6, hostA, hostB, pcap.IPProtoTCP, 40000, 80, pcap.FlagSYN, 40),
	}, 0)
	if len(flows) != 1 || flows[0].State != graph.StateS0 {
		t.Fatalf("flows = %+v, want one S0", flows)
	}
	if flows[0].InPkts != 0 {
		t.Errorf("S0 flow has reply packets")
	}
}

func TestAssembleREJ(t *testing.T) {
	flows := Assemble([]pcap.PacketInfo{
		pkt(0, hostA, hostB, pcap.IPProtoTCP, 40000, 80, pcap.FlagSYN, 40),
		pkt(1000, hostB, hostA, pcap.IPProtoTCP, 80, 40000, pcap.FlagRST|pcap.FlagACK, 40),
	}, 0)
	if len(flows) != 1 || flows[0].State != graph.StateREJ {
		t.Fatalf("state = %v, want REJ", flows[0].State)
	}
}

func TestAssembleRSTO(t *testing.T) {
	ps := tcpSession(0)[:5] // up to established with data
	ps = append(ps, pkt(6000, hostA, hostB, pcap.IPProtoTCP, 40000, 80, pcap.FlagRST, 40))
	flows := Assemble(ps, 0)
	if len(flows) != 1 || flows[0].State != graph.StateRSTO {
		t.Fatalf("state = %v, want RSTO", flows[0].State)
	}
}

func TestAssembleRSTR(t *testing.T) {
	ps := tcpSession(0)[:5]
	ps = append(ps, pkt(6000, hostB, hostA, pcap.IPProtoTCP, 80, 40000, pcap.FlagRST, 40))
	flows := Assemble(ps, 0)
	if len(flows) != 1 || flows[0].State != graph.StateRSTR {
		t.Fatalf("state = %v, want RSTR", flows[0].State)
	}
}

func TestAssembleS1(t *testing.T) {
	ps := tcpSession(0)[:5] // established, never torn down
	flows := Assemble(ps, 0)
	if len(flows) != 1 || flows[0].State != graph.StateS1 {
		t.Fatalf("state = %v, want S1", flows[0].State)
	}
}

func TestAssembleSH(t *testing.T) {
	flows := Assemble([]pcap.PacketInfo{
		pkt(0, hostA, hostB, pcap.IPProtoTCP, 40000, 80, pcap.FlagSYN, 40),
		pkt(1000, hostA, hostB, pcap.IPProtoTCP, 40000, 80, pcap.FlagFIN, 40),
	}, 0)
	if len(flows) != 1 || flows[0].State != graph.StateSH {
		t.Fatalf("state = %v, want SH", flows[0].State)
	}
}

func TestAssembleOTH(t *testing.T) {
	flows := Assemble([]pcap.PacketInfo{
		pkt(0, hostA, hostB, pcap.IPProtoTCP, 40000, 80, pcap.FlagACK|pcap.FlagPSH, 800),
	}, 0)
	if len(flows) != 1 || flows[0].State != graph.StateOTH {
		t.Fatalf("state = %v, want OTH", flows[0].State)
	}
}

func TestAssembleUDPBidirectional(t *testing.T) {
	flows := Assemble([]pcap.PacketInfo{
		pkt(0, hostA, hostB, pcap.IPProtoUDP, 5000, 53, 0, 70),
		pkt(1000, hostB, hostA, pcap.IPProtoUDP, 53, 5000, 0, 200),
	}, 0)
	if len(flows) != 1 {
		t.Fatalf("got %d flows, want 1 (bidirectional merge)", len(flows))
	}
	f := flows[0]
	if f.Protocol != graph.ProtoUDP || f.State != graph.StateNone {
		t.Errorf("proto/state = %v/%v", f.Protocol, f.State)
	}
	if f.OutBytes != 70 || f.InBytes != 200 {
		t.Errorf("bytes = %d/%d, want 70/200", f.OutBytes, f.InBytes)
	}
}

func TestAssembleIdleTimeoutSplits(t *testing.T) {
	// Two UDP bursts on the same 5-tuple, separated by more than the idle
	// timeout, must become two flows.
	flows := Assemble([]pcap.PacketInfo{
		pkt(0, hostA, hostB, pcap.IPProtoUDP, 5000, 53, 0, 70),
		pkt(200*1e6, hostA, hostB, pcap.IPProtoUDP, 5000, 53, 0, 70),
	}, 60*1e6)
	if len(flows) != 2 {
		t.Fatalf("got %d flows, want 2 (idle split)", len(flows))
	}
}

func TestAssemblePortReuseAfterClose(t *testing.T) {
	// A completed TCP session followed by a new session on the same 5-tuple
	// must produce two flows even within the idle window.
	ps := tcpSession(0)
	ps = append(ps, tcpSession(10000)...)
	flows := Assemble(ps, 0)
	if len(flows) != 2 {
		t.Fatalf("got %d flows, want 2 (port reuse after close)", len(flows))
	}
	for _, f := range flows {
		if f.State != graph.StateSF {
			t.Errorf("state = %v, want SF", f.State)
		}
	}
}

func TestAssembleDistinctTuplesDistinctFlows(t *testing.T) {
	flows := Assemble([]pcap.PacketInfo{
		pkt(0, hostA, hostB, pcap.IPProtoUDP, 5000, 53, 0, 70),
		pkt(10, hostA, hostB, pcap.IPProtoUDP, 5001, 53, 0, 70),
		pkt(20, hostA, hostB, pcap.IPProtoTCP, 5000, 53, pcap.FlagSYN, 40),
	}, 0)
	if len(flows) != 3 {
		t.Fatalf("got %d flows, want 3", len(flows))
	}
}

func TestAssembleSortedByStart(t *testing.T) {
	ps := append(tcpSession(5e6), tcpSession(1e6)...)
	// Feed out of order is not required; sort inputs first like a capture.
	flows := Assemble(append(tcpSession(1e6), tcpSession(5e6)...), 0)
	_ = ps
	if len(flows) != 2 || flows[0].StartMicros > flows[1].StartMicros {
		t.Fatalf("flows not sorted by start: %+v", flows)
	}
}

func TestAssembleSyntheticTraceFlowCount(t *testing.T) {
	// End-to-end: the synthetic trace's session count must be recovered by
	// the assembler within a small tolerance (sessions on the same 5-tuple
	// are astronomically unlikely at this scale).
	cfg := pcap.DefaultTraceConfig(50, 2000, 13)
	pkts, err := pcap.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flows := Assemble(pkts, 0)
	if len(flows) < 1900 || len(flows) > 2100 {
		t.Fatalf("recovered %d flows from 2000 sessions", len(flows))
	}
	st := Summarize(flows)
	if st.Hosts != 50 {
		t.Errorf("hosts = %d, want 50", st.Hosts)
	}
	if st.TCP == 0 || st.UDP == 0 || st.ICMP == 0 {
		t.Errorf("missing protocols in %v", st)
	}
}

// Property: flow assembly conserves packets and bytes — the sums over all
// flows equal the sums over all packets, for arbitrary synthetic traces.
func TestAssembleConservation(t *testing.T) {
	for _, seed := range []uint64{1, 22, 333} {
		pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(25, 400, seed))
		if err != nil {
			t.Fatal(err)
		}
		var pktBytes, pktCount int64
		for _, p := range pkts {
			pktBytes += p.Len
			pktCount++
		}
		flows := Assemble(pkts, 0)
		var flowBytes, flowPkts int64
		for i := range flows {
			flowBytes += flows[i].TotalBytes()
			flowPkts += flows[i].TotalPkts()
		}
		if flowBytes != pktBytes {
			t.Fatalf("seed %d: bytes not conserved: %d vs %d", seed, flowBytes, pktBytes)
		}
		if flowPkts != pktCount {
			t.Fatalf("seed %d: packets not conserved: %d vs %d", seed, flowPkts, pktCount)
		}
	}
}

// Regression: Finish must reset the sweep clock. A reused Assembler whose
// previous trace ended at a high timestamp used to keep that high-water mark
// in lastSweep, silently suppressing every idle sweep of a later trace that
// starts earlier — idle flows then accumulated in the active map until Finish.
func TestAssemblerReuseResetsSweepClock(t *testing.T) {
	const idle = 60 * 1e6
	a := NewAssembler(idle)

	// First trace ends far in the future.
	a.Add(pkt(5000*1e6, hostA, hostB, pcap.IPProtoUDP, 5000, 53, 0, 70))
	if got := len(a.Finish()); got != 1 {
		t.Fatalf("first trace: got %d flows, want 1", got)
	}

	// Second trace restarts near zero. The first tuple goes idle; a later
	// packet on a different tuple must sweep it out of the active set.
	a.Add(pkt(0, hostA, hostB, pcap.IPProtoUDP, 6000, 53, 0, 70))
	a.Add(pkt(200*1e6, hostB, hostA, pcap.IPProtoUDP, 7000, 123, 0, 70))
	if got := len(a.active); got != 1 {
		t.Fatalf("active flows after sweep window = %d, want 1 (idle flow swept)", got)
	}
	if flows := a.Finish(); len(flows) != 2 {
		t.Fatalf("second trace: got %d flows, want 2", len(flows))
	}
}

// Finish must return one canonical order when flows share a start time: the
// 5-tuple tie-break. Without it, map-iteration order leaks into the output —
// many simultaneous flows (a scan, a flood) would come back shuffled run to
// run, breaking replay pacing and the streaming detector's ordering
// contract.
func TestFinishDeterministicOrderOnEqualStarts(t *testing.T) {
	const n = 64
	build := func(perm []int) []Flow {
		a := NewAssembler(0)
		// One UDP packet per flow, all at the same microsecond, fed in the
		// given permutation.
		for _, i := range perm {
			a.Add(pkt(1e6, hostA, hostB, pcap.IPProtoUDP, uint16(10000+i), 53, 0, 100))
		}
		return a.Finish()
	}
	fwd := make([]int, n)
	rev := make([]int, n)
	for i := 0; i < n; i++ {
		fwd[i] = i
		rev[i] = n - 1 - i
	}
	f1 := build(fwd)
	f2 := build(rev)
	if len(f1) != n || len(f2) != n {
		t.Fatalf("flow counts %d, %d, want %d", len(f1), len(f2), n)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("order depends on insertion at index %d: %v vs %v", i, f1[i], f2[i])
		}
		if i > 0 && f1[i].SrcPort <= f1[i-1].SrcPort {
			t.Fatalf("tie-break not canonical at %d: port %d after %d", i, f1[i].SrcPort, f1[i-1].SrcPort)
		}
	}
}

// TestSortByStart: flows that start together keep their order, and input
// already in order is not touched at all.
func TestSortByStart(t *testing.T) {
	flows := []Flow{
		{StartMicros: 30, SrcIP: 1}, {StartMicros: 10, SrcIP: 2}, {StartMicros: 30, SrcIP: 3},
		{StartMicros: 10, SrcIP: 4}, {StartMicros: 20, SrcIP: 5},
	}
	SortByStart(flows)
	for i, want := range []uint32{2, 4, 5, 1, 3} {
		if flows[i].SrcIP != want {
			t.Fatalf("position %d holds flow %d, want %d: %+v", i, flows[i].SrcIP, want, flows)
		}
	}
	before := append([]Flow(nil), flows...)
	SortByStart(flows)
	for i := range flows {
		if flows[i] != before[i] {
			t.Fatalf("sorted input changed at %d", i)
		}
	}
	SortByStart(nil)
}
