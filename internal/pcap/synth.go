package pcap

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"unsafe"

	"csb/internal/stats"
)

// TraceConfig parameterizes the synthetic trace generator. The zero value is
// not valid; use DefaultTraceConfig or fill every field.
type TraceConfig struct {
	Hosts    int // distinct hosts (vertices of the eventual seed graph)
	Sessions int // flows (edges of the eventual seed graph)

	StartMicros    int64 // trace start time (microseconds since epoch)
	DurationMicros int64 // session start times are uniform in this window

	Seed uint64 // RNG seed; equal configs produce identical traces

	// Protocol mix; the ICMP fraction is the remainder.
	TCPFraction float64
	UDPFraction float64

	// TCP failure-mode probabilities (the remainder is a normal SF session).
	PNoResponse float64 // S0: SYN never answered
	PReject     float64 // REJ: SYN answered by RST
	PReset      float64 // RSTO: established then aborted by originator

	// PacketAlpha is the power-law exponent of data packets per flow
	// direction; smaller means heavier tails.
	PacketAlpha float64
	// MaxDataPackets caps per-direction data packets, bounding trace size.
	MaxDataPackets int64
}

// DefaultTraceConfig returns the configuration used by the experiments: a
// trace with scale-free server popularity and a realistic protocol mix.
func DefaultTraceConfig(hosts, sessions int, seed uint64) TraceConfig {
	return TraceConfig{
		Hosts:          hosts,
		Sessions:       sessions,
		StartMicros:    1318204800 * 1e6, // 2011-10-10, the SMIA capture date
		DurationMicros: 10 * 60 * 1e6,
		Seed:           seed,
		TCPFraction:    0.70,
		UDPFraction:    0.25,
		PNoResponse:    0.03,
		PReject:        0.02,
		PReset:         0.02,
		PacketAlpha:    1.9,
		MaxDataPackets: 200,
	}
}

// MaxHosts is the most hosts a trace can address: HostIP numbers host i as
// 10.0.0.0 + i+1, which stays inside 10.0.0.0/8, distinct, and short of
// its broadcast address up to here.
const MaxHosts = 1<<24 - 2

// maxSessions bounds Sessions so the packet slice Synthesize presizes (8
// packets a session) stays under 2^47 bytes, below the runtime's allocation
// limit on every 64-bit platform: past that limit make panics.
const maxSessions = min(1<<47, math.MaxInt) / (8 * int(unsafe.Sizeof(PacketInfo{})))

// SessionBytes is about what one session of a default trace costs
// Synthesize at its peak: 16 packets (the default mix averages 15.3),
// each held twice as a PacketInfo (generated and sorted) and twice as a
// sort key, while sortByTime gathers.
const SessionBytes = 16 * int(2*unsafe.Sizeof(PacketInfo{})+2*unsafe.Sizeof(tsKey{}))

func (c *TraceConfig) validate() error {
	switch {
	case c.Hosts < 2:
		return errors.New("pcap: need at least 2 hosts")
	case c.Hosts > MaxHosts:
		return fmt.Errorf("pcap: %d hosts exceed the 10.0.0.0/8 address plan (at most %d)", c.Hosts, MaxHosts)
	case c.Sessions < 1:
		return errors.New("pcap: need at least 1 session")
	case c.Sessions > maxSessions:
		return fmt.Errorf("pcap: %d sessions exceed the trace size limit (at most %d)", c.Sessions, maxSessions)
	case c.DurationMicros <= 0:
		return errors.New("pcap: duration must be positive")
	case c.TCPFraction < 0 || c.UDPFraction < 0 || c.TCPFraction+c.UDPFraction > 1:
		return errors.New("pcap: invalid protocol mix")
	case c.PacketAlpha <= 1:
		return errors.New("pcap: packet alpha must exceed 1")
	case c.MaxDataPackets < 1:
		return errors.New("pcap: max data packets must be positive")
	}
	return nil
}

// HostIP returns the synthetic address of host i: 10.0.0.0/8 space.
func HostIP(i int) uint32 { return 0x0a000000 | uint32(i+1) }

// Common server ports weighted roughly like enterprise traffic.
var tcpServerPorts = []uint16{80, 443, 443, 80, 22, 25, 8080, 3389, 445, 143}
var udpServerPorts = []uint16{53, 53, 53, 123, 161, 514}

// Synthesize generates the packets of a synthetic trace. Servers are chosen
// by preferential attachment (each completed session makes its server more
// likely to be chosen again), which yields the scale-free in-degree
// distribution the seed graph must exhibit. Packets are returned in
// timestamp order, and packets with equal timestamps in the order they were
// generated (session by session, each session's packets in sequence).
func Synthesize(cfg TraceConfig) ([]PacketInfo, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return sortByTime(generate(&cfg), cfg.StartMicros), nil
}

// generate returns a valid cfg's packets in generation order.
func generate(cfg *TraceConfig) []PacketInfo {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5eed))
	// Preferential server pool: starts with one slot per host, and every
	// chosen server is appended again, so P(server=h) grows with its use.
	pool := make([]int, cfg.Hosts)
	for i := range pool {
		pool[i] = i
	}
	pkts := make([]PacketInfo, 0, cfg.Sessions*8)
	dataLaw := &stats.PowerLaw{Alpha: cfg.PacketAlpha, Xmin: 1}

	for s := 0; s < cfg.Sessions; s++ {
		client := rng.IntN(cfg.Hosts)
		server := pool[rng.IntN(len(pool))]
		for server == client {
			server = pool[rng.IntN(len(pool))]
		}
		pool = append(pool, server)

		start := cfg.StartMicros + rng.Int64N(cfg.DurationMicros)
		p := rng.Float64()
		switch {
		case p < cfg.TCPFraction:
			pkts = appendTCPSession(pkts, rng, cfg, dataLaw, client, server, start)
		case p < cfg.TCPFraction+cfg.UDPFraction:
			pkts = appendUDPSession(pkts, rng, cfg, dataLaw, client, server, start)
		default:
			pkts = appendICMPSession(pkts, rng, client, server, start)
		}
	}
	return pkts
}

// radixBits is the digit width of sortByTime: 3 passes cover the 30-bit
// offsets of a default 10-minute trace.
const radixBits = 11

// tsKey is one packet's sort key, its timestamp offset, and its index.
type tsKey struct {
	key uint64
	idx int
}

// sortByTime returns pkts in timestamp order, stable: an LSD radix sort of
// (TsMicros - base, index) pairs, radixBits a pass over only the digits the
// largest offset uses, then one gather of the packets. Every timestamp must
// be at least base.
func sortByTime(pkts []PacketInfo, base int64) []PacketInfo {
	keys := make([]tsKey, len(pkts))
	var bits uint64
	for i := range pkts {
		k := uint64(pkts[i].TsMicros - base)
		keys[i] = tsKey{k, i}
		bits |= k
	}
	tmp := make([]tsKey, len(pkts))
	for shift := 0; shift < 64 && bits>>shift != 0; shift += radixBits {
		var next [1 << radixBits]int
		for _, k := range keys {
			next[k.key>>shift&(1<<radixBits-1)]++
		}
		at := 0
		for d, n := range next {
			next[d] = at
			at += n
		}
		for _, k := range keys {
			d := k.key >> shift & (1<<radixBits - 1)
			tmp[next[d]] = k
			next[d]++
		}
		keys, tmp = tmp, keys
	}
	out := make([]PacketInfo, len(pkts))
	for i, k := range keys {
		out[i] = pkts[k.idx]
	}
	return out
}

func ephemeralPort(rng *rand.Rand) uint16 {
	return uint16(32768 + rng.IntN(28232))
}

func tcpSegSize(rng *rand.Rand) int64 {
	// Bimodal: small control-ish segments and near-MTU bulk segments.
	if rng.Float64() < 0.4 {
		return 40 + rng.Int64N(160)
	}
	return 1000 + rng.Int64N(500)
}

func appendTCPSession(pkts []PacketInfo, rng *rand.Rand, cfg *TraceConfig, law *stats.PowerLaw, client, server int, start int64) []PacketInfo {
	sp := ephemeralPort(rng)
	dp := tcpServerPorts[rng.IntN(len(tcpServerPorts))]
	ts := start
	c2s := func(flags TCPFlags, size int64) {
		pkts = append(pkts, PacketInfo{TsMicros: ts, SrcIP: HostIP(client), DstIP: HostIP(server),
			Protocol: IPProtoTCP, SrcPort: sp, DstPort: dp, Flags: flags, Len: size})
	}
	s2c := func(flags TCPFlags, size int64) {
		pkts = append(pkts, PacketInfo{TsMicros: ts, SrcIP: HostIP(server), DstIP: HostIP(client),
			Protocol: IPProtoTCP, SrcPort: dp, DstPort: sp, Flags: flags, Len: size})
	}
	step := func() { ts += 100 + rng.Int64N(5000) }

	outcome := rng.Float64()
	switch {
	case outcome < cfg.PNoResponse: // S0: unanswered SYN (with retries)
		for i := 0; i < 1+rng.IntN(3); i++ {
			c2s(FlagSYN, 40)
			ts += 1e6
		}
		return pkts
	case outcome < cfg.PNoResponse+cfg.PReject: // REJ
		c2s(FlagSYN, 40)
		step()
		s2c(FlagRST|FlagACK, 40)
		return pkts
	}

	// Established session.
	c2s(FlagSYN, 40)
	step()
	s2c(FlagSYN|FlagACK, 40)
	step()
	c2s(FlagACK, 40)
	step()
	nOut := min64(law.Sample(rng), cfg.MaxDataPackets)
	nIn := min64(law.Sample(rng)*2, cfg.MaxDataPackets) // responses are bulkier
	for i := int64(0); i < nOut; i++ {
		c2s(FlagACK|FlagPSH, tcpSegSize(rng))
		step()
	}
	for i := int64(0); i < nIn; i++ {
		s2c(FlagACK|FlagPSH, tcpSegSize(rng))
		step()
	}
	if outcome < cfg.PNoResponse+cfg.PReject+cfg.PReset { // RSTO
		c2s(FlagRST, 40)
		return pkts
	}
	// Normal termination: SF.
	c2s(FlagFIN|FlagACK, 40)
	step()
	s2c(FlagFIN|FlagACK, 40)
	step()
	c2s(FlagACK, 40)
	return pkts
}

func appendUDPSession(pkts []PacketInfo, rng *rand.Rand, cfg *TraceConfig, law *stats.PowerLaw, client, server int, start int64) []PacketInfo {
	sp := ephemeralPort(rng)
	dp := udpServerPorts[rng.IntN(len(udpServerPorts))]
	ts := start
	nOut := min64(law.Sample(rng), cfg.MaxDataPackets)
	nIn := min64(law.Sample(rng), cfg.MaxDataPackets)
	for i := int64(0); i < nOut; i++ {
		pkts = append(pkts, PacketInfo{TsMicros: ts, SrcIP: HostIP(client), DstIP: HostIP(server),
			Protocol: IPProtoUDP, SrcPort: sp, DstPort: dp, Len: 60 + rng.Int64N(440)})
		ts += 50 + rng.Int64N(2000)
	}
	for i := int64(0); i < nIn; i++ {
		pkts = append(pkts, PacketInfo{TsMicros: ts, SrcIP: HostIP(server), DstIP: HostIP(client),
			Protocol: IPProtoUDP, SrcPort: dp, DstPort: sp, Len: 60 + rng.Int64N(440)})
		ts += 50 + rng.Int64N(2000)
	}
	return pkts
}

func appendICMPSession(pkts []PacketInfo, rng *rand.Rand, client, server int, start int64) []PacketInfo {
	ts := start
	n := 1 + rng.IntN(4)
	for i := 0; i < n; i++ {
		pkts = append(pkts, PacketInfo{TsMicros: ts, SrcIP: HostIP(client), DstIP: HostIP(server),
			Protocol: IPProtoICMP, Len: 84})
		ts += 1000 + rng.Int64N(1000)
		pkts = append(pkts, PacketInfo{TsMicros: ts, SrcIP: HostIP(server), DstIP: HostIP(client),
			Protocol: IPProtoICMP, Len: 84})
		ts += 1e6
	}
	return pkts
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// WriteTrace encodes packets into a libpcap capture on w.
func WriteTrace(w io.Writer, packets []PacketInfo) error {
	pw := NewWriter(w)
	for _, p := range packets {
		if err := pw.WriteRecord(EncodePacket(p)); err != nil {
			return err
		}
	}
	return pw.Flush()
}

// ReadTrace reads a libpcap capture and decodes every IPv4 packet, silently
// skipping non-IPv4 frames (as a flow analyzer would).
func ReadTrace(r io.Reader) ([]PacketInfo, error) {
	recs, err := ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make([]PacketInfo, 0, len(recs))
	for _, rec := range recs {
		info, err := DecodePacket(rec)
		if err == ErrNotIPv4 {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, nil
}
