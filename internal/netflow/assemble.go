package netflow

import (
	"cmp"
	"slices"
	"sort"

	"csb/internal/graph"
	"csb/internal/pcap"
)

// DefaultIdleTimeoutMicros is the flow idle timeout: a flow with no packet
// for this long is considered finished, matching common Netflow exporter and
// Bro defaults (60 s for TCP-ish traffic at our trace scale).
const DefaultIdleTimeoutMicros = 60 * 1e6

type flowKey struct {
	a, b         uint32
	aPort, bPort uint16
	proto        uint8
}

type flowState struct {
	flow Flow
	// TCP bookkeeping for the Bro state machine.
	origSYN  bool // originator sent SYN
	respSYN  bool // responder sent SYN-ACK
	origFIN  bool
	respFIN  bool
	origRST  bool
	respRST  bool
	sawReply bool // any responder packet at all
	closing  bool // teardown complete; lingering for trailing ACKs
}

// Assembler groups packets into bidirectional flows. Feed packets in
// timestamp order via Add, then call Finish to flush open flows. The zero
// value is not ready; use NewAssembler.
type Assembler struct {
	idleTimeout int64
	active      map[flowKey]*flowState
	done        []Flow
	lastSweep   int64
}

// NewAssembler returns an Assembler with the given idle timeout in
// microseconds (0 means DefaultIdleTimeoutMicros).
func NewAssembler(idleTimeoutMicros int64) *Assembler {
	if idleTimeoutMicros <= 0 {
		idleTimeoutMicros = DefaultIdleTimeoutMicros
	}
	return &Assembler{
		idleTimeout: idleTimeoutMicros,
		active:      make(map[flowKey]*flowState),
	}
}

func key(p pcap.PacketInfo) flowKey {
	return flowKey{a: p.SrcIP, b: p.DstIP, aPort: p.SrcPort, bPort: p.DstPort, proto: p.Protocol}
}

func (k flowKey) reversed() flowKey {
	return flowKey{a: k.b, b: k.a, aPort: k.bPort, bPort: k.aPort, proto: k.proto}
}

// Add processes one packet. Packets should arrive in non-decreasing
// timestamp order; mild reordering is tolerated (flows only extend).
func (a *Assembler) Add(p pcap.PacketInfo) {
	// Periodically expire idle flows so memory stays bounded on long traces.
	if p.TsMicros-a.lastSweep > a.idleTimeout {
		a.sweep(p.TsMicros)
		a.lastSweep = p.TsMicros
	}
	k := key(p)
	if st, ok := a.active[k]; ok {
		switch {
		case p.TsMicros-st.flow.EndMicros > a.idleTimeout:
			a.finalize(k, st)
		case st.closing && p.Flags.Has(pcap.FlagSYN):
			// Port reuse: a fresh handshake after teardown starts a new flow.
			a.finalize(k, st)
		default:
			a.update(st, p, true)
			a.maybeClose(st)
			return
		}
	}
	rk := k.reversed()
	if st, ok := a.active[rk]; ok {
		switch {
		case p.TsMicros-st.flow.EndMicros > a.idleTimeout:
			a.finalize(rk, st)
		case st.closing && p.Flags.Has(pcap.FlagSYN):
			a.finalize(rk, st)
		default:
			a.update(st, p, false)
			a.maybeClose(st)
			return
		}
	}
	// New flow; the first packet's sender is the originator.
	st := &flowState{flow: Flow{
		SrcIP: p.SrcIP, DstIP: p.DstIP,
		Protocol: protoFromIP(p.Protocol),
		SrcPort:  p.SrcPort, DstPort: p.DstPort,
		StartMicros: p.TsMicros, EndMicros: p.TsMicros,
	}}
	a.active[k] = st
	a.update(st, p, true)
}

// update folds packet p into st; fromOrig says whether p travels in the
// originator's direction.
func (a *Assembler) update(st *flowState, p pcap.PacketInfo, fromOrig bool) {
	f := &st.flow
	if p.TsMicros > f.EndMicros {
		f.EndMicros = p.TsMicros
	}
	if fromOrig {
		f.OutBytes += p.Len
		f.OutPkts++
	} else {
		f.InBytes += p.Len
		f.InPkts++
		st.sawReply = true
	}
	if p.Protocol != pcap.IPProtoTCP {
		return
	}
	if p.Flags.Has(pcap.FlagSYN) {
		f.SYNCount++
		if fromOrig {
			st.origSYN = true
		} else {
			st.respSYN = true
		}
	}
	if p.Flags.Has(pcap.FlagACK) {
		f.ACKCount++
	}
	if p.Flags.Has(pcap.FlagFIN) {
		if fromOrig {
			st.origFIN = true
		} else {
			st.respFIN = true
		}
	}
	if p.Flags.Has(pcap.FlagRST) {
		if fromOrig {
			st.origRST = true
		} else {
			st.respRST = true
		}
	}
}

// maybeClose marks a TCP flow as closing once its teardown is complete. The
// flow lingers so trailing teardown ACKs still fold in; it is finalized when
// a new SYN reuses the tuple, at an idle sweep, or at Finish.
func (a *Assembler) maybeClose(st *flowState) {
	if st.flow.Protocol != graph.ProtoTCP {
		return
	}
	if st.origRST || st.respRST || (st.origFIN && st.respFIN) {
		st.closing = true
	}
}

func (a *Assembler) finalize(k flowKey, st *flowState) {
	st.flow.State = tcpState(st)
	a.done = append(a.done, st.flow)
	delete(a.active, k)
}

func (a *Assembler) sweep(now int64) {
	for k, st := range a.active {
		if now-st.flow.EndMicros > a.idleTimeout {
			a.finalize(k, st)
		}
	}
}

// tcpState derives the Bro-style connection state.
func tcpState(st *flowState) graph.TCPState {
	if st.flow.Protocol != graph.ProtoTCP {
		return graph.StateNone
	}
	switch {
	case !st.origSYN:
		return graph.StateOTH // midstream: no originator SYN seen
	case st.origSYN && !st.sawReply && st.origFIN:
		return graph.StateSH
	case st.origSYN && !st.sawReply:
		return graph.StateS0
	case st.respRST && !st.respSYN:
		return graph.StateREJ
	case st.origRST:
		return graph.StateRSTO
	case st.respRST:
		return graph.StateRSTR
	case st.origFIN && st.respFIN:
		return graph.StateSF
	default:
		return graph.StateS1
	}
}

// Finish flushes every open flow and returns all flows sorted by start time,
// with a stable tie-break on the 5-tuple for flows starting on the same
// microsecond. Ties are common (port scans, floods) and the pre-sort order
// leaks map iteration, so without the tie-break the output order — which the
// replay engine's pacing and StreamDetector's non-decreasing-order contract
// both consume — would vary run to run. The Assembler can be reused
// afterwards.
func (a *Assembler) Finish() []Flow {
	for k, st := range a.active {
		a.finalize(k, st)
	}
	out := a.done
	a.done = nil
	// Reset the sweep clock too: a reused Assembler fed a trace that starts
	// earlier than the previous one ended must not suppress idle sweeps (or,
	// with a stale high-water mark, trip one on the very first packet).
	a.lastSweep = 0
	sort.Slice(out, func(i, j int) bool { return FlowLess(&out[i], &out[j]) })
	return out
}

// FlowLess orders flows by StartMicros, then by the 5-tuple (src, dst,
// ports, protocol) and EndMicros so equal-start flows have one canonical
// order independent of map iteration. It is exported because this ordering
// is the repo-wide canonical flow order: attack.Scenario.Finish sorts mixed
// scenarios with it so injected flows interleave with background exactly the
// way Assembler.Finish would have emitted them.
func FlowLess(a, b *Flow) bool {
	switch {
	case a.StartMicros != b.StartMicros:
		return a.StartMicros < b.StartMicros
	case a.SrcIP != b.SrcIP:
		return a.SrcIP < b.SrcIP
	case a.DstIP != b.DstIP:
		return a.DstIP < b.DstIP
	case a.SrcPort != b.SrcPort:
		return a.SrcPort < b.SrcPort
	case a.DstPort != b.DstPort:
		return a.DstPort < b.DstPort
	case a.Protocol != b.Protocol:
		return a.Protocol < b.Protocol
	default:
		return a.EndMicros < b.EndMicros
	}
}

// SortByStart puts flows in non-decreasing StartMicros order — the replay
// pacing contract — leaving flows that start together in their current order.
// Input already in order (assembled, compiled or graph-projected flows) is
// left untouched: the sort is stable, so it would be the identity there.
func SortByStart(flows []Flow) {
	byStart := func(a, b Flow) int { return cmp.Compare(a.StartMicros, b.StartMicros) }
	if !slices.IsSortedFunc(flows, byStart) {
		slices.SortStableFunc(flows, byStart)
	}
}

// Assemble is the one-shot convenience: packets in, flows out.
func Assemble(packets []pcap.PacketInfo, idleTimeoutMicros int64) []Flow {
	a := NewAssembler(idleTimeoutMicros)
	for _, p := range packets {
		a.Add(p)
	}
	return a.Finish()
}
