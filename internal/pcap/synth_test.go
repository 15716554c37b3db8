package pcap

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"csb/internal/stats"
)

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := DefaultTraceConfig(20, 200, 42)
	a, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs between runs", i)
		}
	}
}

func TestSynthesizeSorted(t *testing.T) {
	pkts, err := Synthesize(DefaultTraceConfig(10, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(pkts, func(i, j int) bool { return pkts[i].TsMicros < pkts[j].TsMicros }) {
		t.Fatal("packets not in timestamp order")
	}
}

func TestSynthesizeProtocolMix(t *testing.T) {
	cfg := DefaultTraceConfig(50, 3000, 7)
	pkts, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint8]int{}
	for _, p := range pkts {
		counts[p.Protocol]++
		if p.SrcIP == p.DstIP {
			t.Fatal("self-loop packet generated")
		}
		if p.Len < 28 {
			t.Fatalf("packet too small: %d", p.Len)
		}
	}
	for _, proto := range []uint8{IPProtoTCP, IPProtoUDP, IPProtoICMP} {
		if counts[proto] == 0 {
			t.Errorf("no packets of protocol %d", proto)
		}
	}
	if counts[IPProtoTCP] <= counts[IPProtoICMP] {
		t.Error("TCP should dominate ICMP under the default mix")
	}
}

func TestSynthesizeScaleFreePopularity(t *testing.T) {
	// Server in-popularity should be heavy-tailed: fit a power law to the
	// distinct-destination contact counts and expect a plausible exponent.
	cfg := DefaultTraceConfig(200, 20000, 99)
	pkts, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count sessions per destination server using SYNs/first-packets by
	// destination IP of client->server packets; approximate with all packets
	// grouped by dst.
	contacts := map[uint32]int64{}
	for _, p := range pkts {
		contacts[p.DstIP]++
	}
	counts := make([]int64, 0, len(contacts))
	for _, c := range contacts {
		counts = append(counts, c)
	}
	fit, err := stats.FitPowerLaw(counts, 10)
	if err != nil {
		t.Fatalf("power-law fit: %v", err)
	}
	if fit.Alpha < 1.2 || fit.Alpha > 4.5 {
		t.Errorf("popularity exponent = %g, want scale-free-ish (1.2..4.5)", fit.Alpha)
	}
	// And the max must far exceed the median (heavy tail).
	s := stats.SummarizeInt(counts)
	if s.Max < 5*s.Median {
		t.Errorf("no heavy tail: max %g median %g", s.Max, s.Median)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	bad := []TraceConfig{
		{Hosts: 1, Sessions: 1, DurationMicros: 1, TCPFraction: 0.5, UDPFraction: 0.2, PacketAlpha: 2, MaxDataPackets: 10},
		{Hosts: 5, Sessions: 0, DurationMicros: 1, TCPFraction: 0.5, UDPFraction: 0.2, PacketAlpha: 2, MaxDataPackets: 10},
		{Hosts: 5, Sessions: 1, DurationMicros: 0, TCPFraction: 0.5, UDPFraction: 0.2, PacketAlpha: 2, MaxDataPackets: 10},
		{Hosts: 5, Sessions: 1, DurationMicros: 1, TCPFraction: 0.9, UDPFraction: 0.3, PacketAlpha: 2, MaxDataPackets: 10},
		{Hosts: 5, Sessions: 1, DurationMicros: 1, TCPFraction: 0.5, UDPFraction: 0.2, PacketAlpha: 1, MaxDataPackets: 10},
		{Hosts: 5, Sessions: 1, DurationMicros: 1, TCPFraction: 0.5, UDPFraction: 0.2, PacketAlpha: 2, MaxDataPackets: 0},
		// Past 2^24-2 hosts HostIP leaves 10.0.0.0/8 and addresses collide.
		DefaultTraceConfig(MaxHosts+1, 1, 1),
		DefaultTraceConfig(1<<25, 1, 1),
		// A session count whose presized packet slice make cannot allocate.
		DefaultTraceConfig(10, maxSessions+1, 1),
		DefaultTraceConfig(10, 1<<60, 1),
	}
	for i, cfg := range bad {
		if _, err := Synthesize(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestSynthesizeTiesKeepGenerationOrder checks Synthesize against a stable
// comparison sort of the generated packets over seeds with equal
// timestamps: packets that tie keep the order they were generated in.
func TestSynthesizeTiesKeepGenerationOrder(t *testing.T) {
	ties := 0
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := DefaultTraceConfig(100, 2000, seed)
		want := generate(&cfg)
		sort.SliceStable(want, func(i, j int) bool { return want[i].TsMicros < want[j].TsMicros })
		got, err := Synthesize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: Synthesize differs from the stable sort of the generated packets", seed)
		}
		for i := 1; i < len(got); i++ {
			if got[i].TsMicros == got[i-1].TsMicros {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no seed produced equal timestamps; the check ran on nothing")
	}
}

// TestSortByTimeStable drives every radix pass: offsets spanning all 64
// bits, offset 0, and runs of equal keys, against sort.SliceStable.
func TestSortByTimeStable(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const base = 1_000_000
	for _, bits := range []uint{0, 1, 11, 12, 33, 63} {
		pkts := make([]PacketInfo, 5000)
		for i := range pkts {
			off := int64(rng.Uint64() >> (64 - bits) >> 1)
			if i%7 == 0 && i > 0 {
				off = pkts[i-1].TsMicros - base // a tie with the previous packet
			}
			pkts[i] = PacketInfo{TsMicros: base + off, Len: int64(i)}
		}
		want := slices.Clone(pkts)
		sort.SliceStable(want, func(i, j int) bool { return want[i].TsMicros < want[j].TsMicros })
		if got := sortByTime(pkts, base); !slices.Equal(got, want) {
			t.Errorf("%d-bit offsets: sortByTime differs from sort.SliceStable", bits)
		}
	}
	if got := sortByTime(nil, base); len(got) != 0 {
		t.Errorf("empty input sorted to %d packets", len(got))
	}
}

func BenchmarkSynthesize(b *testing.B) {
	cfg := DefaultTraceConfig(100, 2000, 1)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Synthesize(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWriteReadTraceRoundTrip(t *testing.T) {
	pkts, err := Synthesize(DefaultTraceConfig(10, 150, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, pkts); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("round trip: %d packets, want %d", len(got), len(pkts))
	}
	for i := range pkts {
		if got[i] != pkts[i] {
			t.Fatalf("packet %d mismatch:\n in %+v\nout %+v", i, pkts[i], got[i])
		}
	}
}

func TestHostIP(t *testing.T) {
	if HostIP(0) != 0x0a000001 {
		t.Errorf("HostIP(0) = %#x", HostIP(0))
	}
	if HostIP(255) != 0x0a000100 {
		t.Errorf("HostIP(255) = %#x", HostIP(255))
	}
}

func TestTCPSessionsHaveHandshake(t *testing.T) {
	cfg := DefaultTraceConfig(10, 500, 11)
	cfg.UDPFraction = 0
	cfg.TCPFraction = 1
	cfg.PNoResponse, cfg.PReject, cfg.PReset = 0, 0, 0
	pkts, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var syn, synack, fin int
	for _, p := range pkts {
		switch {
		case p.Flags.Has(FlagSYN | FlagACK):
			synack++
		case p.Flags.Has(FlagSYN):
			syn++
		}
		if p.Flags.Has(FlagFIN) {
			fin++
		}
	}
	if syn != 500 || synack != 500 {
		t.Errorf("handshakes: %d SYN %d SYN-ACK, want 500 each", syn, synack)
	}
	if fin != 1000 { // each normal session has 2 FINs
		t.Errorf("FIN count = %d, want 1000", fin)
	}
}
