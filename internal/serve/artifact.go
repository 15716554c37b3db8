package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"csb/internal/cluster"
	"csb/internal/core"
	"csb/internal/dist/rows"
	"csb/internal/graph"
	"csb/internal/netflow"
	"csb/internal/replay"
	"csb/internal/scenario"
)

// EngineShape fixes the virtual-cluster topology artifacts are generated on.
// Partitioning (and therefore per-partition RNG streams) follows the cluster
// shape, so the shape is part of a deployment's artifact identity: one
// daemon must keep one shape for its cache to stay sound. The zero shape is
// the default placement, 1 node x 1 core on every host — the one csbgen,
// csbeval and Spec.ID assume; setting Nodes or CoresPerNode changes bytes.
// Nothing else does: real parallelism follows GOMAXPROCS without touching
// placement, and the fault-tolerance knobs below are deliberately NOT part of
// artifact identity — retries, speculation and injected faults change the
// attempt schedule, never the committed bytes (see internal/cluster/fault.go),
// so chaos-enabled daemons keep serving cache-compatible artifacts.
type EngineShape struct {
	// Nodes is the virtual node count (0 means 1).
	Nodes int
	// CoresPerNode is the per-node core count (0 means 1).
	CoresPerNode int
	// MaxTaskRetries bounds per-task retry attempts in the engine (0 means
	// cluster.DefaultMaxTaskRetries; negative disables retries).
	MaxTaskRetries int
	// Speculation enables straggler duplication in the engine.
	Speculation bool
	// Faults, when non-nil, injects deterministic chaos into every job's
	// engine (testing only).
	Faults *cluster.FaultPlan
}

// newCluster builds the per-job execution cluster: the deployment's engine
// shape, bounded by ctx, traced by tracer, dispatching remotable stages to
// exec (all three may be nil). Like the fault knobs, exec is not part of
// artifact identity: where a stage's tasks run never changes their bytes.
func (sh EngineShape) newCluster(ctx context.Context, tracer *cluster.Tracer, exec cluster.TaskExecutor) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Nodes: sh.Nodes, CoresPerNode: sh.CoresPerNode, Context: ctx, Tracer: tracer,
		MaxTaskRetries: sh.MaxTaskRetries,
		Speculation:    sh.Speculation,
		Faults:         sh.Faults,
		Executor:       exec,
	})
}

// BuildArtifact runs the full pipeline for one normalized spec — synthetic
// seed trace, seed analysis, generation on c, artifact encoding — and
// returns the encoded artifact bytes. The bytes are a pure function of
// (spec, engine shape); ctx cancellation aborts between engine stages.
func BuildArtifact(ctx context.Context, spec Spec, c *cluster.Cluster) ([]byte, error) {
	if spec.Generator == GenScenario {
		// Scenario jobs reuse the same per-job cluster (cancellation, fault
		// plan, tracer), so csbd's retry and chaos semantics apply to labeled
		// artifacts unchanged.
		sc, err := scenario.Compile(spec.Scenario, c)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return scenario.EncodeLabeled(sc)
	}
	seed, err := core.SyntheticSeed(spec.Hosts, spec.Sessions, spec.Seed)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gen, err := core.NewGenerator(spec.Generator, spec.Fraction, spec.Seed, c)
	if err != nil {
		return nil, err
	}
	g, err := gen.Generate(seed, spec.Edges)
	if err != nil {
		return nil, err
	}
	return encodeArtifactOn(g, spec.Format, c)
}

// EncodeArtifact writes g in the given artifact format: exactly the bytes
// BuildArtifact returns for it, so csbgen's files, the daemon's artifacts
// and anything else that encodes a graph share one set of bytes. csbg is
// Graph.Write; the text formats write encodeText's slice.
func EncodeArtifact(w io.Writer, g *graph.Graph, format string) error {
	if format == FormatCSBG {
		return g.Write(w)
	}
	out, err := encodeText(g, format)
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// encodeText formats g as a text artifact: header and rows are appended
// straight from the graph's columns into one slice, presized from the
// format's row-width estimate so it does not regrow. The row formatters are
// the ones the distributed row encoders share (internal/dist/rows).
func encodeText(g *graph.Graph, format string) ([]byte, error) {
	n := int(g.NumEdges())
	switch format {
	case FormatTSV, "":
		return g.AppendEdgeList(make([]byte, 0, len(graph.EdgeListHeader)+n*graph.EdgeListRowBytes)), nil
	case FormatCSV:
		out := make([]byte, 0, len(netflow.CSVHeaderLine)+n*netflow.CSVRowBytes)
		return netflow.AppendCSV(out, netflow.FlowsFromGraph(g)), nil
	case FormatNDJSON:
		return rows.AppendNDJSON(make([]byte, 0, n*rows.NDJSONRowBytes), g.Cols()), nil
	default:
		return nil, fmt.Errorf("serve: unknown artifact format %q", format)
	}
}

// encodeArtifactOn returns g's artifact bytes. csbg goes through Graph.Write
// into a buffer it sizes exactly; csbg is not distributed — its result bytes
// equal its input bytes, so shipping them wins nothing. The text formats are
// encodeText's slice, except on a cluster with a TaskExecutor: there they
// encode chunk-parallel through the engine (remotable row stages, see
// internal/dist/rows), so workers carry the formatting and the coordinator
// concatenates header + chunks in partition order. Chunks share encodeText's
// row formatters and partitioning follows only the cluster shape, so the
// bytes are identical on every worker count.
func encodeArtifactOn(g *graph.Graph, format string, c *cluster.Cluster) ([]byte, error) {
	if format == FormatCSBG {
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	if c == nil || c.Config().Executor == nil {
		return encodeText(g, format)
	}
	switch format {
	case FormatTSV, "":
		return encodeChunked(cluster.ParallelizeEdges(c, g.Cols(), 0), graph.EdgeListHeader, rows.TSVKind,
			rows.TSVRows, rows.EncodeEdges)
	case FormatNDJSON:
		return encodeChunked(cluster.ParallelizeEdges(c, g.Cols(), 0), "", rows.NDJSONKind,
			rows.NDJSONRows, rows.EncodeEdges)
	case FormatCSV:
		return encodeChunked(cluster.Parallelize(c, netflow.FlowsFromGraph(g), 0), netflow.CSVHeaderLine, rows.CSVKind,
			rows.CSVRows, replay.EncodeFlows)
	default:
		return encodeText(g, format)
	}
}

// encodeChunked runs one remotable row-encode stage over the pre-partitioned
// records and returns header plus the row chunks in partition order, in one
// slice of exactly their total size. Callers hand it a dataset
// (ParallelizeEdges for columnar edge sources) so record batches stream into
// partition storage without a monolithic row slice.
func encodeChunked[T any](ds *cluster.Dataset[T], header, kind string,
	local func(xs []T) []byte, payload func(xs []T) []byte) ([]byte, error) {
	c := ds.Cluster()
	chunks := cluster.MapPartitionsRemotable(ds, kind,
		func(part int, xs []T) []byte { return local(xs) },
		func(part int, xs []T) []byte { return payload(xs) },
		func(result []byte) ([]byte, error) { return result, nil })
	if err := c.Err(); err != nil {
		return nil, err
	}
	size := len(header)
	for i := 0; i < chunks.NumPartitions(); i++ {
		size += len(chunks.Partition(i))
	}
	out := append(make([]byte, 0, size), header...)
	for i := 0; i < chunks.NumPartitions(); i++ {
		out = append(out, chunks.Partition(i)...)
	}
	return out, nil
}
