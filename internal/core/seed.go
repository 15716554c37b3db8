// Package core implements the paper's contribution: the seed-analysis
// pipeline of Figure 1 and the two property-graph generators, PGPBA
// (Property-Graph Parallel Barabási-Albert, Figure 2) and PGSK
// (Property-Graph Stochastic Kronecker, Figure 3). Both grow an analyzed
// seed property-graph to a synthetic graph of arbitrary size while
// preserving its structural properties (in-/out-degree, PageRank) and its
// Netflow attribute distributions.
package core

import (
	"errors"
	"fmt"
	"math"

	"csb/internal/graph"
	"csb/internal/netflow"
	"csb/internal/pcap"
	"csb/internal/stats"
)

// Seed is an analyzed seed graph: the graph itself plus the pre-computed
// distributions the generators sample from (Figure 1, last step).
type Seed struct {
	// Graph is the seed property graph built from a network trace.
	Graph *graph.Graph
	// InDegree and OutDegree are the empirical degree distributions
	// (zero-degree vertices excluded).
	InDegree  *stats.Discrete
	OutDegree *stats.Discrete
	// Props models the joint Netflow attribute distributions.
	Props *PropertyModel
}

// Analyze performs the seed analysis of Figure 1: it computes the in- and
// out-degree probability distributions and the attribute model
// p(IN_BYTES), p(a | IN_BYTES) from the seed property graph.
func Analyze(g *graph.Graph) (*Seed, error) {
	if g.NumEdges() == 0 {
		return nil, errors.New("core: seed graph has no edges")
	}
	in, err := stats.DegreeDistribution(g.InDegrees())
	if err != nil {
		return nil, fmt.Errorf("core: in-degree analysis: %w", err)
	}
	out, err := stats.DegreeDistribution(g.OutDegrees())
	if err != nil {
		return nil, fmt.Errorf("core: out-degree analysis: %w", err)
	}
	props, err := FitPropertiesBatch(g.Cols())
	if err != nil {
		return nil, fmt.Errorf("core: attribute analysis: %w", err)
	}
	return &Seed{Graph: g, InDegree: in, OutDegree: out, Props: props}, nil
}

// SeedFromPackets runs the Figure 1 pipeline over a packet trace: Netflow
// assembly with the default idle timeout, property-graph construction, seed
// analysis.
func SeedFromPackets(pkts []pcap.PacketInfo) (*Seed, error) {
	return Analyze(netflow.BuildGraph(netflow.Assemble(pkts, 0)))
}

// SyntheticSeed is SeedFromPackets over the synthetic trace that hosts,
// sessions and seed size — the seed every spec, scenario background, grid
// cell and CLI run without a captured trace starts from.
func SyntheticSeed(hosts, sessions int, seed uint64) (*Seed, error) {
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(hosts, sessions, seed))
	if err != nil {
		return nil, fmt.Errorf("core: synthesizing seed trace: %w", err)
	}
	return SeedFromPackets(pkts)
}

// PropertyModel holds the Netflow attribute distributions of a seed: the
// unconditional p(IN_BYTES) and, for every other attribute a, the
// conditional p(a | IN_BYTES) realized as per-bucket distributions over
// logarithmic IN_BYTES buckets. Conditioning preserves cross-attribute
// structure (a flow that moved many bytes also moved many packets and
// lasted longer), which independent sampling would destroy.
type PropertyModel struct {
	inBytes *stats.Discrete
	buckets map[int]*attrModel
	all     *attrModel // fallback for buckets unseen at fit time
	// bySupport[i] is the conditional model of inBytes.Support()[i], so a
	// draw resolves its bucket by index instead of by Log2 and a map probe.
	bySupport []*attrModel
}

// indexBuckets builds bySupport once inBytes, buckets and all are in place.
func (m *PropertyModel) indexBuckets() {
	support := m.inBytes.Support()
	m.bySupport = make([]*attrModel, len(support))
	for i, v := range support {
		if m.bySupport[i] = m.buckets[bucketOf(v)]; m.bySupport[i] == nil {
			m.bySupport[i] = m.all
		}
	}
}

// attrModel carries the per-bucket conditional distributions.
type attrModel struct {
	duration   *stats.Discrete
	outBytes   *stats.Discrete
	outPkts    *stats.Discrete
	inPkts     *stats.Discrete
	srcPort    *stats.Discrete
	dstPort    *stats.Discrete
	protoState *stats.Discrete // joint (protocol, state) code
}

// bucketOf maps an IN_BYTES value to its logarithmic bucket.
func bucketOf(inBytes int64) int {
	if inBytes <= 0 {
		return 0
	}
	return 1 + int(math.Log2(float64(inBytes)))
}

// protoStateCode packs protocol and state into one sampled value so that
// impossible combinations (a UDP flow with a TCP state) can never be
// generated.
func protoStateCode(p graph.Protocol, s graph.TCPState) int64 {
	return int64(p)<<8 | int64(s)
}

func codeProtoState(c int64) (graph.Protocol, graph.TCPState) {
	return graph.Protocol(c >> 8), graph.TCPState(c & 0xff)
}

type attrSamples struct {
	duration, outBytes, outPkts, inPkts, srcPort, dstPort, protoState []int64
}

func (s *attrSamples) add(e *graph.Edge) {
	s.duration = append(s.duration, e.Props.Duration)
	s.outBytes = append(s.outBytes, e.Props.OutBytes)
	s.outPkts = append(s.outPkts, e.Props.OutPkts)
	s.inPkts = append(s.inPkts, e.Props.InPkts)
	s.srcPort = append(s.srcPort, int64(e.Props.SrcPort))
	s.dstPort = append(s.dstPort, int64(e.Props.DstPort))
	s.protoState = append(s.protoState, protoStateCode(e.Props.Protocol, e.Props.State))
}

func (s *attrSamples) fit() (*attrModel, error) {
	m := &attrModel{}
	var err error
	fit := func(dst **stats.Discrete, samples []int64) {
		if err != nil {
			return
		}
		*dst, err = stats.FromSamples(samples)
	}
	fit(&m.duration, s.duration)
	fit(&m.outBytes, s.outBytes)
	fit(&m.outPkts, s.outPkts)
	fit(&m.inPkts, s.inPkts)
	fit(&m.srcPort, s.srcPort)
	fit(&m.dstPort, s.dstPort)
	fit(&m.protoState, s.protoState)
	return m, err
}

// FitPropertiesBatch estimates the attribute model from the columnar edges of
// a seed property graph, streaming over the batch without materializing a row
// slice.
func FitPropertiesBatch(batch *graph.EdgeBatch) (*PropertyModel, error) {
	n := batch.Len()
	if n == 0 {
		return nil, errors.New("core: no edges to fit properties from")
	}
	inBytes := make([]int64, n)
	perBucket := make(map[int]*attrSamples)
	var global attrSamples
	for i := 0; i < n; i++ {
		e := batch.Edge(i)
		inBytes[i] = e.Props.InBytes
		b := bucketOf(e.Props.InBytes)
		bs := perBucket[b]
		if bs == nil {
			bs = &attrSamples{}
			perBucket[b] = bs
		}
		bs.add(&e)
		global.add(&e)
	}
	m := &PropertyModel{buckets: make(map[int]*attrModel, len(perBucket))}
	var err error
	if m.inBytes, err = stats.FromSamples(inBytes); err != nil {
		return nil, err
	}
	if m.all, err = global.fit(); err != nil {
		return nil, err
	}
	for b, bs := range perBucket {
		bm, err := bs.fit()
		if err != nil {
			return nil, err
		}
		m.buckets[b] = bm
	}
	m.indexBuckets()
	return m, nil
}

// Sample draws one complete Netflow attribute set: IN_BYTES from its
// unconditional distribution, every other attribute from its conditional
// distribution given the IN_BYTES bucket.
func (m *PropertyModel) Sample(rng *stats.RNG) graph.EdgeProps {
	i := m.inBytes.SampleIndex(rng)
	ib, am := m.inBytes.Support()[i], m.bySupport[i]
	proto, state := codeProtoState(am.protoState.Sample(rng))
	return graph.EdgeProps{
		Protocol: proto,
		State:    state,
		SrcPort:  uint16(am.srcPort.Sample(rng)),
		DstPort:  uint16(am.dstPort.Sample(rng)),
		Duration: am.duration.Sample(rng),
		OutBytes: am.outBytes.Sample(rng),
		InBytes:  ib,
		OutPkts:  am.outPkts.Sample(rng),
		InPkts:   am.inPkts.Sample(rng),
	}
}
