// Package csb is the public API of the Cyber-Security Benchmark data
// generation suite: a Go reproduction of "A Comparison of Graph-Based
// Synthetic Data Generators for Benchmarking Next-Generation Intrusion
// Detection Systems" (IEEE CLUSTER 2017).
//
// The pipeline follows the paper end to end:
//
//  1. Obtain a seed trace — read a PCAP capture (ReadTracePCAP) or
//     synthesize one (SynthesizeTrace).
//  2. Convert packets to Netflow records and to a property graph
//     (AssembleFlows, BuildFlowGraph) and analyze it (AnalyzeSeed).
//  3. Grow the seed with a generator: PGPBA (Barabási-Albert based) or
//     PGSK (stochastic Kronecker based).
//  4. Evaluate veracity (DegreeVeracity, PageRankVeracity) or hunt
//     anomalies (Detect).
//
// A minimal session:
//
//	seed, _ := csb.BuildSyntheticSeed(100, 2000, 42)
//	gen := &csb.PGPBA{Fraction: 0.1, Seed: 42}
//	synthetic, _ := gen.Generate(seed, 1_000_000)
//	score, _ := csb.DegreeVeracity(seed.Graph, synthetic)
package csb

import (
	"context"
	"fmt"
	"io"

	"csb/internal/attack"
	"csb/internal/cluster"
	"csb/internal/core"
	"csb/internal/eval"
	"csb/internal/genmodels"
	"csb/internal/graph"
	"csb/internal/graphalgo"
	"csb/internal/ids"
	"csb/internal/kronecker"
	"csb/internal/netflow"
	"csb/internal/pagerank"
	"csb/internal/pcap"
	"csb/internal/pso"
	"csb/internal/serve"
	"csb/internal/stats"
)

// Re-exported core types. The aliases make the internal packages' types part
// of the public API without duplicating them.
type (
	// Graph is a directed property multigraph (hosts as vertices, flows as
	// edges carrying Netflow attributes).
	Graph = graph.Graph
	// Edge is one flow edge.
	Edge = graph.Edge
	// EdgeProps carries the Netflow attributes of an edge.
	EdgeProps = graph.EdgeProps
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Packet is a decoded IPv4 packet.
	Packet = pcap.PacketInfo
	// TraceConfig parameterizes synthetic trace generation.
	TraceConfig = pcap.TraceConfig
	// Flow is a Netflow record.
	Flow = netflow.Flow
	// Seed is an analyzed seed graph ready for generation.
	Seed = core.Seed
	// PGPBA is the Property-Graph Parallel Barabási-Albert generator.
	PGPBA = core.PGPBA
	// PGSK is the Property-Graph Stochastic Kronecker generator.
	PGSK = core.PGSK
	// Generator is the common generator contract.
	Generator = core.Generator
	// Cluster is the (virtual) execution cluster.
	Cluster = cluster.Cluster
	// ClusterConfig describes a cluster topology.
	ClusterConfig = cluster.Config
	// ClusterMetrics is the virtual-time and memory accounting.
	ClusterMetrics = cluster.Metrics
	// Tracer collects stage-level execution spans across clusters.
	Tracer = cluster.Tracer
	// StageRecord is one recorded engine stage (op, tasks, timings, bytes).
	StageRecord = cluster.StageRecord
	// StageError is the typed, sticky failure of an engine stage whose task
	// exhausted its retry budget; surfaced by Cluster.Err.
	StageError = cluster.StageError
	// FaultPlan deterministically injects faults into engine task attempts
	// for chaos testing; assign to ClusterConfig.Faults.
	FaultPlan = cluster.FaultPlan
	// Initiator is a 2x2 Kronecker initiator matrix.
	Initiator = kronecker.Initiator
	// Alert is one anomaly detection.
	Alert = ids.Alert
	// Thresholds are the Table I detection thresholds.
	Thresholds = ids.Thresholds
	// AttackType classifies alerts.
	AttackType = ids.AttackType
	// Scenario is labeled attack traffic for detector evaluation.
	Scenario = attack.Scenario
	// Server is the dataset-generation service behind cmd/csbd: a bounded
	// job queue, a content-addressed artifact cache and an HTTP API.
	Server = serve.Server
	// ServerConfig parameterizes a Server (worker pool, queue depth,
	// admission caps, cache budgets, engine shape).
	ServerConfig = serve.Config
	// JobSpec is a generation-job specification; its content address
	// (JobSpec.ID) keys the artifact cache and is shared with csbgen.
	JobSpec = serve.Spec
	// JobStatus is the wire representation of a submitted job.
	JobStatus = serve.JobStatus
	// ServerMetrics is a point-in-time snapshot of service counters.
	ServerMetrics = serve.Metrics
	// EngineShape fixes the virtual-cluster topology server jobs run on.
	EngineShape = serve.EngineShape
)

// Attack classes (re-exported from the ids package).
const (
	AttackHostScan    = ids.AttackHostScan
	AttackNetworkScan = ids.AttackNetworkScan
	AttackSYNFlood    = ids.AttackSYNFlood
	AttackFlood       = ids.AttackFlood
	AttackDDoS        = ids.AttackDDoS
)

// DefaultTraceConfig returns the standard synthetic-trace configuration.
func DefaultTraceConfig(hosts, sessions int, seed uint64) TraceConfig {
	return pcap.DefaultTraceConfig(hosts, sessions, seed)
}

// SynthesizeTrace generates a synthetic packet trace (the substitute for a
// captured PCAP seed).
func SynthesizeTrace(cfg TraceConfig) ([]Packet, error) {
	return pcap.Synthesize(cfg)
}

// WriteTracePCAP writes packets as a libpcap capture.
func WriteTracePCAP(w io.Writer, packets []Packet) error {
	return pcap.WriteTrace(w, packets)
}

// ReadTracePCAP reads a libpcap capture, returning its IPv4 packets.
func ReadTracePCAP(r io.Reader) ([]Packet, error) {
	return pcap.ReadTrace(r)
}

// AssembleFlows converts packets to Netflow records with the default idle
// timeout (the Bro-analysis step of Figure 1).
func AssembleFlows(packets []Packet) []Flow {
	return netflow.Assemble(packets, 0)
}

// BuildFlowGraph maps flow records onto a property graph.
func BuildFlowGraph(flows []Flow) *Graph {
	return netflow.BuildGraph(flows)
}

// FlowsOf converts a property graph back to flow records.
func FlowsOf(g *Graph) []Flow {
	return netflow.FlowsFromGraph(g)
}

// WriteFlowsCSV serializes flows as CSV with a header row.
func WriteFlowsCSV(w io.Writer, flows []Flow) error {
	return netflow.WriteCSV(w, flows)
}

// ReadFlowsCSV parses flows written by WriteFlowsCSV.
func ReadFlowsCSV(r io.Reader) ([]Flow, error) {
	return netflow.ReadCSV(r)
}

// ReadGraph deserializes a property graph written with Graph.Write.
func ReadGraph(r io.Reader) (*Graph, error) {
	return graph.Read(r)
}

// AnalyzeSeed computes the degree and attribute distributions of a seed
// property graph (the last step of Figure 1).
func AnalyzeSeed(g *Graph) (*Seed, error) {
	return core.Analyze(g)
}

// BuildSyntheticSeed runs the whole Figure 1 pipeline over a synthetic
// trace: hosts and sessions control the seed's size, seed the randomness.
func BuildSyntheticSeed(hosts, sessions int, seed uint64) (*Seed, error) {
	return core.SyntheticSeed(hosts, sessions, seed)
}

// BuildSeedFromPCAP runs the Figure 1 pipeline over a captured trace.
func BuildSeedFromPCAP(r io.Reader) (*Seed, error) {
	pkts, err := pcap.ReadTrace(r)
	if err != nil {
		return nil, fmt.Errorf("csb: reading PCAP: %w", err)
	}
	return core.SeedFromPackets(pkts)
}

// NewCluster creates an execution cluster; see ClusterConfig.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(cfg)
}

// LocalCluster returns a single-node cluster of maxParallel cores; 0 is the
// default engine (1 x 1 placement on every host, parallelism up to
// GOMAXPROCS).
func LocalCluster(maxParallel int) *Cluster {
	return cluster.Local(maxParallel)
}

// NewTracer creates a stage-span tracer; assign it to ClusterConfig.Tracer
// to record every engine stage, then export with WriteChromeTrace or
// WriteStageTable.
func NewTracer() *Tracer {
	return cluster.NewTracer()
}

// NewFaultPlan builds a mixed chaos plan (panics, transient errors,
// straggler delays) from one total fault rate; see cluster.NewFaultPlan.
func NewFaultPlan(seed uint64, rate float64) *FaultPlan {
	return cluster.NewFaultPlan(seed, rate)
}

// NewServer starts the dataset-generation service of cmd/csbd: workers are
// running on return; mount Handler on an http.Server and Close to drain.
func NewServer(cfg ServerConfig) (*Server, error) {
	return serve.New(cfg)
}

// BuildArtifact generates the artifact bytes for a job spec on cluster c —
// the same bytes csbd caches and serves for spec (normalize the spec first).
func BuildArtifact(ctx context.Context, spec JobSpec, c *Cluster) ([]byte, error) {
	return serve.BuildArtifact(ctx, spec, c)
}

// DegreeVeracity computes the degree veracity score of a synthetic graph
// against its seed (Section V-A; smaller is better).
func DegreeVeracity(seed, synthetic *Graph) (float64, error) {
	return stats.VeracityScoreInt(seed.Degrees(), synthetic.Degrees())
}

// PageRankVeracity computes the PageRank veracity score of a synthetic
// graph against its seed (Section V-A; smaller is better).
func PageRankVeracity(seed, synthetic *Graph) (float64, error) {
	return pagerank.Veracity(seed, synthetic)
}

// PageRanks computes the PageRank vector of g with default options.
func PageRanks(g *Graph) ([]float64, error) {
	res, err := pagerank.Compute(g, pagerank.Options{})
	if err != nil {
		return nil, err
	}
	return res.Ranks, nil
}

// DefaultThresholds returns the baseline detection thresholds of Table I.
func DefaultThresholds() Thresholds { return ids.DefaultThresholds() }

// TrainThresholds derives detection thresholds from attack-free traffic.
func TrainThresholds(normal []Flow, quantile, margin float64) Thresholds {
	return ids.TrainThresholds(normal, quantile, margin)
}

// Detect runs the Section IV anomaly-detection flow over a property graph.
func Detect(g *Graph, t Thresholds) []Alert {
	return ids.NewDetector(t).DetectGraph(g)
}

// DetectFlows runs the detector directly over flow records.
func DetectFlows(flows []Flow, t Thresholds) []Alert {
	return ids.NewDetector(t).Detect(flows)
}

// NewScenario starts a labeled attack scenario from background traffic; use
// its Inject methods to add attacks and Score to grade detector output.
func NewScenario(background []Flow) *Scenario {
	return attack.NewScenario(background)
}

// TuneThresholds optimizes thresholds against a labeled scenario with PSO.
func TuneThresholds(s *Scenario, base Thresholds, seed uint64) (Thresholds, error) {
	tuned, _, err := attack.TuneThresholds(s, base, pso.Config{Seed: seed})
	return tuned, err
}

// StreamDetector is the on-line anomaly detector over flow streams.
type StreamDetector = ids.StreamDetector

// NewStreamDetector builds a streaming detector with tumbling windows of
// windowMicros microseconds (0 selects one minute); alerts are delivered to
// sink as windows close.
func NewStreamDetector(t Thresholds, windowMicros int64, sink func(Alert)) *StreamDetector {
	return ids.NewStreamDetector(t, windowMicros, sink)
}

// Components is a weakly-connected-component labelling.
type Components = graphalgo.Components

// ConnectedComponents computes the weakly connected components of g.
func ConnectedComponents(g *Graph) *Components {
	return graphalgo.WeakComponents(g)
}

// Betweenness estimates vertex betweenness centrality with Brandes sweeps
// over `samples` sampled sources (0 means exact).
func Betweenness(g *Graph, samples int, seed uint64) []float64 {
	return graphalgo.ApproxBetweenness(g, graphalgo.BetweennessOptions{Samples: samples, Seed: seed})
}

// Classical baseline generators (Section II of the paper), re-exported for
// comparison studies against PGPBA and PGSK.
var (
	// ErdosRenyi generates G(n, m) with m distinct uniform directed edges.
	ErdosRenyi = genmodels.ErdosRenyi
	// WattsStrogatz generates the rewired ring-lattice small-world model.
	WattsStrogatz = genmodels.WattsStrogatz
	// ChungLu generates a multigraph matching expected degree sequences.
	ChungLu = genmodels.ChungLu
	// SBM generates a stochastic block model from block sizes and a
	// block-pair probability matrix.
	SBM = genmodels.SBM
	// RMAT generates a recursive-matrix graph from quadrant probabilities.
	RMAT = genmodels.RMAT
	// BTER generates the block two-level Erdős-Rényi model (degree sequence
	// plus community structure / clustering).
	BTER = genmodels.BTER
)

// ClusteringCoefficients returns the average local clustering coefficient
// and the global transitivity of g's undirected simple view.
func ClusteringCoefficients(g *Graph) (avgLocal, global float64) {
	return graphalgo.ClusteringCoefficients(g)
}

// DetectDirect runs the Section IV anomaly-detection flow using the
// vertex-indexed graph aggregation (the fast path; identical alerts to
// Detect).
func DetectDirect(g *Graph, t Thresholds) []Alert {
	return ids.NewDetector(t).DetectGraphDirect(g)
}

// Evaluation harness (internal/eval) re-exports: the per-cell metric suite
// behind cmd/csbeval, usable directly for one-off studies.
type (
	// EvalReport is the full fidelity report of one synthetic graph against
	// its seed: per-attribute distribution distances (JS, EMD, KS), veracity
	// scores, graph-structure statistics and PageRank profile correlation.
	EvalReport = eval.Report
	// EvalOptions tunes Evaluate (PageRank profile resolution).
	EvalOptions = eval.Options
	// AttrDistance is one attribute's distance triple (JS, EMD, KS).
	AttrDistance = eval.AttrDistance
	// UtilityReport scores detector-tuning transfer: thresholds tuned on
	// synthetic data, graded on a held-out seed-derived scenario.
	UtilityReport = eval.UtilityReport
	// UtilityConfig parameterizes the utility metric.
	UtilityConfig = eval.UtilityConfig
	// EvalGridSpec is the experiments.json schema of cmd/csbeval.
	EvalGridSpec = eval.GridSpec
)

// EvaluateFidelity computes the full metric suite of a synthetic graph
// against its seed graph. The zero EvalOptions selects the defaults.
func EvaluateFidelity(seed, synthetic *Graph, opts EvalOptions) (*EvalReport, error) {
	return eval.Evaluate(seed, synthetic, opts)
}

// EvaluateUtility computes the utility metric of a synthetic graph: tune the
// detector on the graph's flows (attacks injected per cfg), then score the
// tuned thresholds on the held-out scenario. A zero cfg selects the
// defaults.
func EvaluateUtility(g *Graph, cfg UtilityConfig, tuneSeed uint64) (*UtilityReport, error) {
	if err := eval.NormalizeUtility(&cfg); err != nil {
		return nil, err
	}
	return eval.Utility(g, &cfg, tuneSeed)
}

// DegreeAssortativity computes the Pearson degree correlation over the
// endpoints of g's undirected simple view (Newman's r); NaN when degenerate.
func DegreeAssortativity(g *Graph) float64 {
	return graphalgo.DegreeAssortativity(g)
}

// Triangles counts the distinct triangles of g's undirected simple view.
func Triangles(g *Graph) int64 {
	return graphalgo.Triangles(g)
}
