package ids

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"csb/internal/graph"
	"csb/internal/netflow"
	"csb/internal/pcap"
)

func backgroundFlows(t testing.TB, hosts, sessions int, seed uint64) []netflow.Flow {
	t.Helper()
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(hosts, sessions, seed))
	if err != nil {
		t.Fatal(err)
	}
	return netflow.Assemble(pkts, 0)
}

func TestAggregatePatternsBasic(t *testing.T) {
	flows := []netflow.Flow{
		{SrcIP: 1, DstIP: 10, DstPort: 80, OutBytes: 100, OutPkts: 2, SYNCount: 1, ACKCount: 3},
		{SrcIP: 2, DstIP: 10, DstPort: 443, OutBytes: 50, InBytes: 50, OutPkts: 1, InPkts: 1},
		{SrcIP: 1, DstIP: 20, DstPort: 80, OutBytes: 10, OutPkts: 1},
	}
	byDst, bySrc := AggregatePatterns(flows)
	if len(byDst) != 2 || len(bySrc) != 2 {
		t.Fatalf("patterns: %d byDst %d bySrc", len(byDst), len(bySrc))
	}
	// byDst sorted by IP: 10 first.
	p := byDst[0]
	if p.IP != 10 || !p.ByDst {
		t.Fatalf("pattern = %+v", p)
	}
	if p.NFlows != 2 || p.DistinctPeers != 2 || p.DistinctPorts != 2 {
		t.Fatalf("dst pattern counts: %+v", p)
	}
	if p.SumFlowSize != 200 || p.SumPackets != 4 {
		t.Fatalf("dst pattern sums: %+v", p)
	}
	if p.SYN != 1 || p.ACK != 3 {
		t.Fatalf("dst pattern flags: %+v", p)
	}
	// bySrc: IP 1 has flows to 10 and 20.
	s := bySrc[0]
	if s.IP != 1 || s.ByDst || s.NFlows != 2 || s.DistinctPeers != 2 || s.DistinctPorts != 1 {
		t.Fatalf("src pattern: %+v", s)
	}
}

func TestPatternAverages(t *testing.T) {
	p := Pattern{NFlows: 4, SumFlowSize: 100, SumPackets: 8, SYN: 4, ACK: 1}
	if p.AvgFlowSize() != 25 || p.AvgPackets() != 2 {
		t.Fatalf("averages: %g %g", p.AvgFlowSize(), p.AvgPackets())
	}
	if p.AckSynRatio() != 0.25 {
		t.Fatalf("ratio = %g", p.AckSynRatio())
	}
	var z Pattern
	if z.AvgFlowSize() != 0 || z.AvgPackets() != 0 {
		t.Fatal("zero pattern averages nonzero")
	}
	if z.AckSynRatio() != 1 {
		t.Fatal("no-SYN ratio should be neutral 1")
	}
}

func TestNoAlertsOnNormalTraffic(t *testing.T) {
	flows := backgroundFlows(t, 40, 600, 1)
	det := NewDetector(TrainThresholds(flows, 0.99, 2))
	alerts := det.Detect(flows)
	// Trained thresholds on the very same traffic must be (nearly) silent.
	if len(alerts) > 2 {
		t.Fatalf("%d false alarms on normal traffic: %v", len(alerts), alerts)
	}
}

// synthetic attack helpers (kept local to avoid an import cycle with the
// attack package, which imports ids).

func hostScanFlows(victim uint32, n int) []netflow.Flow {
	out := make([]netflow.Flow, n)
	for i := range out {
		out[i] = netflow.Flow{
			SrcIP: 0xbad00001, DstIP: victim, Protocol: graph.ProtoTCP,
			SrcPort: uint16(30000 + i), DstPort: uint16(i + 1),
			OutBytes: 40, OutPkts: 1, State: graph.StateS0, SYNCount: 1,
		}
	}
	return out
}

func synFloodFlows(victim uint32, n int) []netflow.Flow {
	out := make([]netflow.Flow, n)
	rng := rand.New(rand.NewPCG(1, 1))
	for i := range out {
		out[i] = netflow.Flow{
			SrcIP: 0xc0000000 | rng.Uint32()&0xffff, DstIP: victim, Protocol: graph.ProtoTCP,
			SrcPort: uint16(1024 + i), DstPort: 80,
			OutBytes: 40, OutPkts: 1, State: graph.StateS0, SYNCount: 1,
		}
	}
	return out
}

func networkScanFlows(attacker uint32, n int) []netflow.Flow {
	out := make([]netflow.Flow, n)
	for i := range out {
		out[i] = netflow.Flow{
			SrcIP: attacker, DstIP: 0x0a010000 | uint32(i+1), Protocol: graph.ProtoTCP,
			SrcPort: uint16(30000 + i), DstPort: 22,
			OutBytes: 40, OutPkts: 1, State: graph.StateS0, SYNCount: 1,
		}
	}
	return out
}

func floodFlows(attacker, victim uint32, n int) []netflow.Flow {
	out := make([]netflow.Flow, n)
	for i := range out {
		out[i] = netflow.Flow{
			SrcIP: attacker, DstIP: victim, Protocol: graph.ProtoUDP,
			SrcPort: uint16(1024 + i), DstPort: 80,
			OutBytes: 800_000, OutPkts: 900,
		}
	}
	return out
}

func ddosFlows(victim uint32, sources, per int) []netflow.Flow {
	var out []netflow.Flow
	for s := 0; s < sources; s++ {
		a := 0xd0000000 | uint32(s+1)
		out = append(out, floodFlows(a, victim, per)...)
	}
	return out
}

func detectTypes(t *testing.T, flows []netflow.Flow) map[AttackType][]Alert {
	t.Helper()
	det := NewDetector(DefaultThresholds())
	byType := map[AttackType][]Alert{}
	for _, a := range det.Detect(flows) {
		byType[a.Type] = append(byType[a.Type], a)
	}
	return byType
}

func TestDetectHostScan(t *testing.T) {
	victim := uint32(0x0a000005)
	byType := detectTypes(t, hostScanFlows(victim, 200))
	hs := byType[AttackHostScan]
	if len(hs) != 1 || hs[0].IP != victim || !hs[0].ByDst {
		t.Fatalf("host scan not detected: %v", byType)
	}
}

func TestDetectSYNFlood(t *testing.T) {
	victim := uint32(0x0a000006)
	byType := detectTypes(t, synFloodFlows(victim, 300))
	sf := byType[AttackSYNFlood]
	if len(sf) != 1 || sf[0].IP != victim {
		t.Fatalf("SYN flood not detected: %v", byType)
	}
}

func TestDetectNetworkScan(t *testing.T) {
	attacker := uint32(0x0bad0001)
	byType := detectTypes(t, networkScanFlows(attacker, 150))
	ns := byType[AttackNetworkScan]
	if len(ns) != 1 || ns[0].IP != attacker || ns[0].ByDst {
		t.Fatalf("network scan not detected: %v", byType)
	}
}

func TestDetectFlood(t *testing.T) {
	victim := uint32(0x0a000007)
	byType := detectTypes(t, floodFlows(0x0bad0002, victim, 10))
	fl := byType[AttackFlood]
	if len(fl) != 1 || fl[0].IP != victim {
		t.Fatalf("flood not detected: %v", byType)
	}
	if len(byType[AttackDDoS]) != 0 {
		t.Fatal("single-source flood misclassified as DDoS")
	}
}

func TestDetectDDoS(t *testing.T) {
	victim := uint32(0x0a000008)
	byType := detectTypes(t, ddosFlows(victim, 30, 3))
	dd := byType[AttackDDoS]
	if len(dd) != 1 || dd[0].IP != victim {
		t.Fatalf("DDoS not detected: %v", byType)
	}
}

func TestDetectAttacksBuriedInBackground(t *testing.T) {
	flows := backgroundFlows(t, 40, 600, 2)
	victim := pcap.HostIP(3)
	flows = append(flows, hostScanFlows(victim, 1500)...)
	det := NewDetector(TrainThresholds(backgroundFlows(t, 40, 600, 3), 0.99, 2))
	var found bool
	for _, a := range det.Detect(flows) {
		if a.Type == AttackHostScan && a.IP == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("host scan not found in mixed traffic")
	}
}

func TestDetectGraphPath(t *testing.T) {
	// Detection through the property-graph representation: build a graph
	// from attack flows and detect on the graph.
	g := netflow.BuildGraph(hostScanFlows(0x0a000009, 200))
	det := NewDetector(DefaultThresholds())
	alerts := det.Detect(netflow.FlowsFromGraph(g))
	var found bool
	for _, a := range alerts {
		if a.Type == AttackHostScan {
			found = true
		}
	}
	if !found {
		t.Fatalf("graph-path detection failed: %v", alerts)
	}
}

func TestAttackTypeStrings(t *testing.T) {
	want := map[AttackType]string{
		AttackNone: "none", AttackHostScan: "host-scan", AttackNetworkScan: "network-scan",
		AttackSYNFlood: "syn-flood", AttackFlood: "flood", AttackDDoS: "ddos",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), s)
		}
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{Type: AttackHostScan, IP: 0x0a000001, ByDst: true, Pattern: Pattern{NFlows: 5}}
	s := a.String()
	if s == "" || a.Type.String() != "host-scan" {
		t.Fatalf("alert string %q", s)
	}
}

func TestTrainThresholdsDefaultsOnBadArgs(t *testing.T) {
	flows := backgroundFlows(t, 10, 100, 4)
	tr := TrainThresholds(flows, -1, -1) // invalid => internal defaults
	if tr.NFT <= 0 || tr.FSHT <= 0 {
		t.Fatalf("trained thresholds degenerate: %+v", tr)
	}
}

// referenceAggregate is the map-of-maps AggregatePatterns the aggregator
// replaced, kept as the oracle: one agg with its own peer and port sets per
// detection IP per side.
func referenceAggregate(flows []netflow.Flow) (byDst, bySrc []Pattern) {
	type agg struct {
		p     Pattern
		peers map[uint32]struct{}
		ports map[uint16]struct{}
	}
	dst := make(map[uint32]*agg)
	src := make(map[uint32]*agg)
	get := func(m map[uint32]*agg, ip uint32, byDst bool) *agg {
		a := m[ip]
		if a == nil {
			a = &agg{p: Pattern{IP: ip, ByDst: byDst},
				peers: make(map[uint32]struct{}), ports: make(map[uint16]struct{})}
			m[ip] = a
		}
		return a
	}
	for i := range flows {
		f := &flows[i]
		d := get(dst, f.DstIP, true)
		d.p.NFlows++
		d.p.SumFlowSize += f.TotalBytes()
		d.p.SumPackets += f.TotalPkts()
		d.p.SYN += f.SYNCount
		d.p.ACK += f.ACKCount
		d.peers[f.SrcIP] = struct{}{}
		d.ports[f.DstPort] = struct{}{}

		s := get(src, f.SrcIP, false)
		s.p.NFlows++
		s.p.SumFlowSize += f.TotalBytes()
		s.p.SumPackets += f.TotalPkts()
		s.p.SYN += f.SYNCount
		s.p.ACK += f.ACKCount
		s.peers[f.DstIP] = struct{}{}
		s.ports[f.DstPort] = struct{}{}
	}
	finish := func(m map[uint32]*agg) []Pattern {
		out := make([]Pattern, 0, len(m))
		for _, a := range m {
			a.p.DistinctPeers = int64(len(a.peers))
			a.p.DistinctPorts = int64(len(a.ports))
			out = append(out, a.p)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].IP < out[j].IP })
		return out
	}
	return finish(dst), finish(src)
}

// TestAggregatorMatchesReference holds the reusable aggregator against the
// reference over random flow sets — few hosts so patterns collide, the
// extreme addresses and port 0 included — one-shot and through one aggregator
// reused window after window, where nothing of window k may show in k+1.
func TestAggregatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2))
	ips := []uint32{0, 1, 2, 0x0a000003, 0x0a000005, 0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff}
	ports := []uint16{0, 1, 22, 80, 443, 65535}
	randomFlows := func(n, hosts int) []netflow.Flow {
		flows := make([]netflow.Flow, n)
		for i := range flows {
			flows[i] = netflow.Flow{
				SrcIP: ips[rng.IntN(hosts)], DstIP: ips[rng.IntN(hosts)],
				SrcPort: uint16(rng.IntN(65536)), DstPort: ports[rng.IntN(len(ports))],
				OutBytes: rng.Int64N(5000), InBytes: rng.Int64N(5000),
				OutPkts: rng.Int64N(40), InPkts: rng.Int64N(40),
				SYNCount: rng.Int64N(3), ACKCount: rng.Int64N(6),
			}
		}
		return flows
	}
	check := func(name string, flows []netflow.Flow, byDst, bySrc []Pattern) {
		t.Helper()
		wantDst, wantSrc := referenceAggregate(flows)
		if !slices.Equal(byDst, wantDst) || !slices.Equal(bySrc, wantSrc) {
			t.Fatalf("%s (%d flows):\n byDst %+v\n  want %+v\n bySrc %+v\n  want %+v", name, len(flows), byDst, wantDst, bySrc, wantSrc)
		}
	}

	sets := [][]netflow.Flow{
		nil,
		randomFlows(1, len(ips)),
		randomFlows(50, 1), // one host talking to itself
		{{SrcIP: 0, DstIP: 0xffffffff, DstPort: 0}, {SrcIP: 0xffffffff, DstIP: 0, DstPort: 0}, {SrcIP: 0, DstIP: 0xffffffff, DstPort: 0}},
	}
	for range 50 {
		sets = append(sets, randomFlows(1+rng.IntN(400), 1+rng.IntN(len(ips))))
	}
	for i, flows := range sets {
		byDst, bySrc := AggregatePatterns(flows)
		check(fmt.Sprintf("one-shot set %d", i), flows, byDst, bySrc)
	}

	// Ten consecutive windows through one aggregator, a crowded window before
	// a sparse one, and an empty one in between.
	var a aggregator
	for w := range 10 {
		n := []int{300, 5, 0, 120}[w%4]
		flows := randomFlows(n, 1+rng.IntN(len(ips)))
		byDst, bySrc := a.aggregate(flows)
		check(fmt.Sprintf("reused window %d", w), flows, byDst, bySrc)
	}

	// The detector rides on the same storage: window after window it agrees
	// with a fresh one.
	det := NewDetector(DefaultThresholds())
	for w := range 10 {
		flows := randomFlows(200+rng.IntN(400), 3)
		if got, want := det.Detect(flows), NewDetector(det.T).Detect(flows); !slices.Equal(got, want) {
			t.Fatalf("window %d: reused detector raised %v, a fresh one %v", w, got, want)
		}
	}
}

// TestStampTableMatchesMap holds the generation-stamped table against a Go
// map: the extreme keys, growth across several doublings inside one
// generation, a thousand resets (nothing of generation g may show in g+1,
// whatever the table grew to), and a stamp wrap.
func TestStampTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 1))
	generation := func(tab *stampTable, name string, n int, keyBits uint) {
		t.Helper()
		want := make(map[uint64]int32)
		tab.reset()
		for i := range n {
			k := rng.Uint64() >> (64 - keyBits) // a narrow key space makes repeats
			switch rng.IntN(50) {
			case 0:
				k = 0
			case 1:
				k = ^uint64(0)
			}
			v := int32(i)
			old, seen := want[k]
			if !seen {
				want[k] = v
				old = v
			}
			if got, fresh := tab.put(k, v); got != old || fresh == seen {
				t.Fatalf("%s: put(%#x, %d) = %d, fresh %v; the map holds %d, seen %v", name, k, v, got, fresh, old, seen)
			}
			if tab.n != len(want) {
				t.Fatalf("%s: %d live entries, the map holds %d", name, tab.n, len(want))
			}
		}
		for k, v := range want {
			if got, fresh := tab.put(k, -1); got != v || fresh {
				t.Fatalf("%s: second put(%#x) = %d, fresh %v; want %d", name, k, got, fresh, v)
			}
		}
	}

	var tab stampTable
	generation(&tab, "zero value", 10, 64)
	generation(&tab, "six doublings", 64<<6, 64)
	grown := len(tab.slots)
	if grown < 64<<6 {
		t.Fatalf("table holds %d slots after %d distinct keys", grown, 64<<6)
	}
	for i := range 1000 {
		generation(&tab, fmt.Sprintf("reset %d", i), 1+rng.IntN(300), uint(4+rng.IntN(12)))
	}
	if len(tab.slots) != grown {
		t.Fatalf("small generations moved the table from %d to %d slots", grown, len(tab.slots))
	}

	// Force the wrap: generation 1 comes round again over the slots it wrote
	// the first time, with the same 256 keys.
	var wrap stampTable
	generation(&wrap, "before the wrap", 2000, 8)
	wrap.gen = ^uint32(0)
	generation(&wrap, "after the wrap", 2000, 8)
	if wrap.gen != 1 {
		t.Fatalf("generation %d after the wrap, want 1 (0 is the empty-slot stamp)", wrap.gen)
	}
}
