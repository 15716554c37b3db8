// Package ids implements the paper's Netflow-based anomaly-detection
// approach (Section IV): network traffic is aggregated into traffic-pattern
// records keyed by destination IP and by source IP, the Table I parameters
// are computed per pattern, and the Figure 4 decision flow classifies
// patterns into host scanning, network scanning, TCP SYN flooding, generic
// ICMP/UDP/TCP flooding and DDoS.
//
// As the paper notes, the thresholds are network specific: they can be
// trained from attack-free traffic (TrainThresholds) or tuned with an
// optimizer such as PSO (csb/internal/pso).
package ids

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"csb/internal/netflow"
	"csb/internal/pcap"
)

// AttackType classifies a detected anomaly.
type AttackType uint8

// Attack classes of the Figure 4 flow chart.
const (
	AttackNone        AttackType = iota
	AttackHostScan               // many ports probed on one host
	AttackNetworkScan            // one port probed across many hosts
	AttackSYNFlood               // TCP SYN flood on one service
	AttackFlood                  // ICMP/UDP/TCP bandwidth flood
	AttackDDoS                   // flood from many distinct sources
)

// String names the attack type.
func (a AttackType) String() string {
	switch a {
	case AttackHostScan:
		return "host-scan"
	case AttackNetworkScan:
		return "network-scan"
	case AttackSYNFlood:
		return "syn-flood"
	case AttackFlood:
		return "flood"
	case AttackDDoS:
		return "ddos"
	default:
		return "none"
	}
}

// Pattern is one traffic-pattern record: the Table I parameters for a single
// detection IP, aggregated over all flows sharing that destination (ByDst)
// or source (!ByDst) address.
type Pattern struct {
	IP    uint32 // the detection IP
	ByDst bool   // destination-based (true) or source-based pattern

	NFlows        int64 // N(flow)
	DistinctPeers int64 // N(S_IP) when ByDst, N(D_IP) otherwise
	DistinctPorts int64 // N(D_port): distinct destination ports
	SumFlowSize   int64 // Sum(flowSize), bytes
	SumPackets    int64 // Sum(nPacket)
	SYN           int64 // N(SYN)
	ACK           int64 // N(ACK)
}

// AvgFlowSize returns Avg(flowSize).
func (p *Pattern) AvgFlowSize() float64 {
	if p.NFlows == 0 {
		return 0
	}
	return float64(p.SumFlowSize) / float64(p.NFlows)
}

// AvgPackets returns Avg(nPacket).
func (p *Pattern) AvgPackets() float64 {
	if p.NFlows == 0 {
		return 0
	}
	return float64(p.SumPackets) / float64(p.NFlows)
}

// AckSynRatio returns N(ACK)/N(SYN), or +1 when no SYNs were seen (a neutral
// value: no handshake activity to judge).
func (p *Pattern) AckSynRatio() float64 {
	if p.SYN == 0 {
		return 1
	}
	return float64(p.ACK) / float64(p.SYN)
}

// AggregatePatterns builds the destination-based and source-based pattern
// tables from a flow set, each sorted by IP — the aggregation the
// property-graph structure makes efficient (grouping edges by head or tail
// vertex).
func AggregatePatterns(flows []netflow.Flow) (byDst, bySrc []Pattern) {
	var a aggregator
	return a.aggregate(flows)
}

// aggregator is the one place flows become patterns, off-line (aggregate) and
// on-line (StreamDetector folds each flow on arrival with add). It keeps its
// storage from one window to the next, and a reset is five counter bumps and
// at most 64 bytes cleared, whatever the largest window before it grew the
// tables to.
//
// A window's distinct sets live beside the patterns that own them, as bit
// masks: the window's first 64 destination ports each get a bit of every
// pattern's ports mask, and a source pattern's peers mask has a bit for each
// of the first 64 destination patterns. A flow inside those bounds costs its
// two index probes and a few bit operations. A port or a pair past them
// spills: the pattern keeps the first one it meets, and only the others reach
// a stampTable. Which tier holds a member is fixed for the whole window (a
// port gets its bit at first sight or never, a destination's slot never
// moves), so each distinct count is the sum of disjoint parts.
type aggregator struct {
	dst, src patternSide
	// pairs is the distinct-peer set of both sides at once, for the spilled
	// pairs a source does not keep: the first sighting of (src, dst) is a
	// new source for dst and a new destination for src.
	pairs stampTable
	// portBit maps a destination port to 1 + its bit in the ports masks (0:
	// no bit this window); bitPorts lists the ports holding one, in bit
	// order, so a reset clears only those.
	portBit  [1 << 16]uint8
	bitPorts []uint16
}

// patternSide is one pattern table under construction, keyed on the flows'
// destination or source address.
type patternSide struct {
	index stampTable // detection IP -> its slot in pats
	ports stampTable // set of ip<<32|dstPort, for spilled ports a pattern does not keep
	pats  []Pattern
	masks []patternMasks // beside pats, slot for slot
}

// patternMasks are one pattern's small distinct sets: its destination ports
// by port bit and, on the source side, its peers by destination slot; and the
// first of each that spilled, as 1 + port and as the destination slot (past
// 63), 0 while none has.
type patternMasks struct {
	ports, peers uint64
	port, peer   uint32
}

func (a *aggregator) reset() {
	for _, t := range [...]*stampTable{&a.pairs, &a.dst.index, &a.dst.ports, &a.src.index, &a.src.ports} {
		t.reset()
	}
	for _, p := range a.bitPorts {
		a.portBit[p] = 0
	}
	a.bitPorts = a.bitPorts[:0]
	a.dst.pats, a.dst.masks = a.dst.pats[:0], a.dst.masks[:0]
	a.src.pats, a.src.masks = a.src.pats[:0], a.src.masks[:0]
}

// add folds one flow into its destination's and its source's pattern.
func (a *aggregator) add(f *netflow.Flow) {
	di, si := a.dst.slot(f.DstIP, true), a.src.slot(f.SrcIP, false)
	d, s := &a.dst.pats[di], &a.src.pats[si]
	dm, sm := &a.dst.masks[di], &a.src.masks[si]
	d.fold(f)
	s.fold(f)
	var fresh int64
	if di < 64 {
		fresh = mark(&sm.peers, uint(di))
	} else {
		fresh = spill(&sm.peer, uint32(di), &a.pairs, uint64(f.SrcIP)<<32|uint64(f.DstIP))
	}
	d.DistinctPeers += fresh
	s.DistinctPeers += fresh
	b := a.portBit[f.DstPort]
	if b == 0 && len(a.bitPorts) < 64 {
		a.bitPorts = append(a.bitPorts, f.DstPort)
		b = uint8(len(a.bitPorts))
		a.portBit[f.DstPort] = b
	}
	if b != 0 {
		d.DistinctPorts += mark(&dm.ports, uint(b-1))
		s.DistinctPorts += mark(&sm.ports, uint(b-1))
		return
	}
	d.DistinctPorts += spill(&dm.port, uint32(f.DstPort)+1, &a.dst.ports, uint64(f.DstIP)<<32|uint64(f.DstPort))
	s.DistinctPorts += spill(&sm.port, uint32(f.DstPort)+1, &a.src.ports, uint64(f.SrcIP)<<32|uint64(f.DstPort))
}

// spill adds member v (never 0) of a pattern's spilled set and returns 1 if
// it is new. The pattern keeps the first member in *first; the others go to t
// under key, so a pattern that spills one member never probes t.
func spill(first *uint32, v uint32, t *stampTable, key uint64) int64 {
	switch *first {
	case 0:
		*first = v
		return 1
	case v:
		return 0
	}
	if _, fresh := t.put(key, 0); fresh {
		return 1
	}
	return 0
}

// mark sets bit in *m and returns 1 if it was clear, 0 if it was set.
func mark(m *uint64, bit uint) int64 {
	old := *m
	*m = old | 1<<bit
	return int64(^old >> bit & 1)
}

// fold adds f's volume and flag counts to the pattern.
func (p *Pattern) fold(f *netflow.Flow) {
	p.NFlows++
	p.SumFlowSize += f.TotalBytes()
	p.SumPackets += f.TotalPkts()
	p.SYN += f.SYNCount
	p.ACK += f.ACKCount
}

// fill empties the aggregator and folds flows in.
func (a *aggregator) fill(flows []netflow.Flow) {
	a.reset()
	for i := range flows {
		a.add(&flows[i])
	}
}

// aggregate returns the two tables for flows, each sorted by IP. The slices
// alias the aggregator's storage and are valid until its next call.
func (a *aggregator) aggregate(flows []netflow.Flow) (byDst, bySrc []Pattern) {
	a.fill(flows)
	byIP := func(x, y Pattern) int { return cmp.Compare(x.IP, y.IP) }
	slices.SortFunc(a.dst.pats, byIP)
	slices.SortFunc(a.src.pats, byIP)
	return a.dst.pats, a.src.pats
}

// slot returns the slot of detection address ip's pattern, opening it on
// first use.
func (s *patternSide) slot(ip uint32, byDst bool) int32 {
	slot, fresh := s.index.put(uint64(ip), int32(len(s.pats)))
	if fresh {
		s.pats = append(s.pats, Pattern{IP: ip, ByDst: byDst})
		s.masks = append(s.masks, patternMasks{})
	}
	return slot
}

// stampTable is an open-addressed uint64 -> int32 table (linear probing, at
// most half full) whose slots carry the generation that wrote them: a slot of
// another generation is empty, so reset is a counter bump whatever the table
// grew to. The zero value is an empty table.
type stampTable struct {
	slots []stampSlot
	gen   uint32 // never 0 once slots exist: a zeroed slot is empty
	n     int    // live entries
	shift uint8  // 64 - log2(len(slots))
}

type stampSlot struct {
	key uint64
	val int32
	gen uint32
}

func (t *stampTable) reset() {
	t.n = 0
	if t.gen++; t.gen == 0 {
		clear(t.slots) // stamp wrap: generation 1 must not meet its old slots
		t.gen = 1
	}
}

// put returns the value stored under k, storing v first if k is absent; fresh
// reports that it was.
func (t *stampTable) put(k uint64, v int32) (_ int32, fresh bool) {
	if 2*t.n >= len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := k * 0x9e3779b97f4a7c15 >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			*s = stampSlot{key: k, val: v, gen: t.gen}
			t.n++
			return v, true
		}
		if s.key == k {
			return s.val, false
		}
	}
}

// grow doubles the table, carrying the live generation's entries over.
func (t *stampTable) grow() {
	old, gen := t.slots, t.gen
	size := max(2*len(old), 64)
	t.slots = make([]stampSlot, size)
	t.shift = uint8(64 - bits.Len(uint(size-1)))
	t.gen, t.n = max(gen, 1), 0
	for i := range old {
		if old[i].gen == gen {
			t.put(old[i].key, old[i].val)
		}
	}
}

// Thresholds are the Table I threshold parameters. All are float64 so an
// optimizer can tune them continuously.
type Thresholds struct {
	DIPT float64 // dip-T: max normal distinct destination IPs per source
	SIPT float64 // sip-T: max normal distinct source IPs per destination
	DPLT float64 // dp-LT: low destination-port count bound
	DPHT float64 // dp-HT: high destination-port count bound
	NFT  float64 // nf-T: max normal flow count per detection IP
	FSLT float64 // fs-LT: low average flow size bound (bytes)
	FSHT float64 // fs-HT: high total flow size bound (bytes)
	NPLT float64 // np-LT: low average packet count bound
	NPHT float64 // np-HT: high total packet count bound
	SAT  float64 // sa-T: min normal ACK/SYN ratio
}

// DefaultThresholds returns a hand-set baseline suitable for the synthetic
// traces of this repository; real deployments should train or tune.
func DefaultThresholds() Thresholds {
	return Thresholds{
		DIPT: 15,
		SIPT: 15,
		DPLT: 8,
		DPHT: 20,
		NFT:  40,
		FSLT: 200,
		FSHT: 2 << 20, // 2 MiB aggregate
		NPLT: 4,
		NPHT: 3000,
		SAT:  0.25,
	}
}

// Alert is one detection: the attack class, the detection IP the pattern was
// keyed on, and the triggering pattern for forensics.
type Alert struct {
	Type    AttackType
	IP      uint32 // victim for destination-based alerts, attacker for source-based
	ByDst   bool
	Pattern Pattern
}

// String renders the alert.
func (a Alert) String() string {
	side := "src"
	if a.ByDst {
		side = "dst"
	}
	return fmt.Sprintf("%s %s=%s flows=%d peers=%d ports=%d",
		a.Type, side, pcap.FormatIPv4(a.IP), a.Pattern.NFlows, a.Pattern.DistinctPeers, a.Pattern.DistinctPorts)
}

// Detector runs the Figure 4 decision flow. It reuses its aggregation storage
// from one Detect to the next, so it is not safe for concurrent use; give
// each goroutine its own.
type Detector struct {
	T Thresholds

	agg aggregator
}

// NewDetector returns a Detector with the given thresholds.
func NewDetector(t Thresholds) *Detector { return &Detector{T: t} }

// Detect classifies the flow set and returns all alerts, destination-based
// first, sorted by IP.
func (d *Detector) Detect(flows []netflow.Flow) []Alert {
	d.agg.fill(flows)
	return d.classify(nil, d.agg.dst.pats, d.agg.src.pats)
}

// Classify returns the alerts of pattern tables AggregatePatterns built:
// Detect on the flows they came from, without aggregating them again. A
// caller trying many thresholds on one flow set aggregates once.
func (d *Detector) Classify(byDst, bySrc []Pattern) []Alert {
	return d.classify(nil, byDst, bySrc)
}

// classify appends the alerts of the two pattern tables to alerts,
// destination-based first, each side sorted by IP whatever order its table is
// in: a side holds one pattern per IP, so sorting the few alerts gives the
// order sorting the whole table would.
func (d *Detector) classify(alerts []Alert, byDst, bySrc []Pattern) []Alert {
	byIP := func(a, b Alert) int { return cmp.Compare(a.IP, b.IP) }
	n := len(alerts)
	for i := range byDst {
		if a, ok := d.classifyDst(&byDst[i]); ok {
			alerts = append(alerts, a)
		}
	}
	slices.SortFunc(alerts[n:], byIP)
	n = len(alerts)
	for i := range bySrc {
		if a, ok := d.classifySrc(&bySrc[i]); ok {
			alerts = append(alerts, a)
		}
	}
	slices.SortFunc(alerts[n:], byIP)
	return alerts
}

// classifyDst implements the destination-based half of Figure 4.
func (d *Detector) classifyDst(p *Pattern) (Alert, bool) {
	t := &d.T
	manySmallFlows := float64(p.NFlows) > t.NFT &&
		p.AvgFlowSize() < t.FSLT && p.AvgPackets() < t.NPLT
	if manySmallFlows {
		// Many small flows at one host: scanning or SYN flooding.
		if float64(p.DistinctPorts) > t.DPHT {
			return Alert{Type: AttackHostScan, IP: p.IP, ByDst: true, Pattern: *p}, true
		}
		if p.AckSynRatio() < t.SAT && float64(p.DistinctPorts) < t.DPLT {
			return Alert{Type: AttackSYNFlood, IP: p.IP, ByDst: true, Pattern: *p}, true
		}
	}
	// Bandwidth exhaustion: large total bytes and packets.
	if float64(p.SumFlowSize) > t.FSHT && float64(p.SumPackets) > t.NPHT {
		if float64(p.DistinctPeers) > t.SIPT {
			return Alert{Type: AttackDDoS, IP: p.IP, ByDst: true, Pattern: *p}, true
		}
		return Alert{Type: AttackFlood, IP: p.IP, ByDst: true, Pattern: *p}, true
	}
	return Alert{}, false
}

// classifySrc implements the source-based half of Figure 4.
func (d *Detector) classifySrc(p *Pattern) (Alert, bool) {
	t := &d.T
	manySmallFlows := float64(p.NFlows) > t.NFT &&
		p.AvgFlowSize() < t.FSLT && p.AvgPackets() < t.NPLT
	if manySmallFlows && float64(p.DistinctPeers) > t.DIPT {
		// One source touching many hosts with small probes: network scan.
		return Alert{Type: AttackNetworkScan, IP: p.IP, ByDst: false, Pattern: *p}, true
	}
	return Alert{}, false
}

// TrainThresholds derives thresholds from attack-free traffic: each bound is
// placed at a quantile of the observed per-pattern statistic, scaled by
// margin (> 1 loosens). This realizes the paper's remark that thresholds are
// network driven and must be trained per target network.
func TrainThresholds(normal []netflow.Flow, quantile, margin float64) Thresholds {
	if quantile <= 0 || quantile > 1 {
		quantile = 0.99
	}
	if margin <= 0 {
		margin = 1.5
	}
	byDst, bySrc := AggregatePatterns(normal)
	qAt := func(vals []float64, p float64) float64 {
		if len(vals) == 0 {
			return 0
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	q := func(vals []float64) float64 { return qAt(vals, quantile) }
	var nf, peersDst, peersSrc, ports, sumFS, sumNP, avgFS, avgNP, ratios []float64
	for i := range byDst {
		p := &byDst[i]
		nf = append(nf, float64(p.NFlows))
		peersDst = append(peersDst, float64(p.DistinctPeers))
		ports = append(ports, float64(p.DistinctPorts))
		sumFS = append(sumFS, float64(p.SumFlowSize))
		sumNP = append(sumNP, float64(p.SumPackets))
		avgFS = append(avgFS, p.AvgFlowSize())
		avgNP = append(avgNP, p.AvgPackets())
		if p.SYN > 0 {
			ratios = append(ratios, p.AckSynRatio())
		}
	}
	for i := range bySrc {
		peersSrc = append(peersSrc, float64(bySrc[i].DistinctPeers))
	}
	t := Thresholds{
		DIPT: q(peersSrc) * margin,
		SIPT: q(peersDst) * margin,
		// "Small number of destination ports" means small relative to a
		// typical host's port spread, which a popular server legitimately
		// grows to 10-20; anchor at twice the median plus one.
		DPLT: qAt(ports, 0.5)*margin + 1,
		DPHT: q(ports) * margin,
		NFT:  q(nf) * margin,
		FSLT: q(avgFS) / (4 * margin), // "small" bounds sit well below normal
		FSHT: q(sumFS) * margin,
		NPLT: q(avgNP) / (4 * margin),
		NPHT: q(sumNP) * margin,
		// Normal hosts complete handshakes, so their ACK/SYN ratio sits
		// well above 1; a flood victim's is buried toward zero. Anchor the
		// bound at half the lowest normal ratios.
		SAT: qAt(ratios, 0.05) / 2,
	}
	if t.SAT <= 0 {
		t.SAT = 0.25
	}
	return t
}
