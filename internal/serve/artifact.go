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
	var buf bytes.Buffer
	if err := encodeArtifactOn(&buf, g, spec.Format, c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeArtifact serializes g in the given artifact format. The tsv and csbg
// encodings are exactly Graph.WriteEdgeList and Graph.Write, so daemon
// artifacts stay byte-identical to csbgen's files.
func EncodeArtifact(w io.Writer, g *graph.Graph, format string) error {
	switch format {
	case FormatCSBG:
		return g.Write(w)
	case FormatCSV:
		return netflow.WriteCSV(w, netflow.FlowsFromGraph(g))
	case FormatNDJSON:
		return writeNDJSON(w, g)
	case FormatTSV, "":
		return g.WriteEdgeList(w)
	default:
		return fmt.Errorf("serve: unknown artifact format %q", format)
	}
}

// writeNDJSON emits one JSON object per edge, newline-delimited, in edge
// order (deterministic for deterministic graphs). The row formatter lives in
// internal/dist/rows so the sequential and distributed encoders share it.
func writeNDJSON(w io.Writer, g *graph.Graph) error {
	out, err := rows.NDJSONBatch(g.Cols())
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// encodeArtifactOn is EncodeArtifact with a distributed fast path: on a
// cluster with a TaskExecutor the text formats encode chunk-parallel through
// the engine (remotable row stages, see internal/dist/rows), so workers
// carry the formatting and the coordinator concatenates header + chunks in
// partition order. Chunks share the sequential writers' row formatters and
// partitioning follows only the cluster shape, so the bytes are identical to
// EncodeArtifact's on every worker count. csbg is not distributed — its
// result bytes equal its input bytes, so shipping them wins nothing.
func encodeArtifactOn(w io.Writer, g *graph.Graph, format string, c *cluster.Cluster) error {
	if c == nil || c.Config().Executor == nil {
		return EncodeArtifact(w, g, format)
	}
	switch format {
	case FormatTSV, "":
		return writeChunked(w, cluster.ParallelizeEdges(c, g.Cols(), 0), graph.EdgeListHeader, rows.TSVKind,
			func(xs []graph.Edge) []byte { return rows.TSVRows(xs) },
			rows.EncodeEdges)
	case FormatNDJSON:
		return writeChunked(w, cluster.ParallelizeEdges(c, g.Cols(), 0), "", rows.NDJSONKind,
			func(xs []graph.Edge) []byte {
				out, err := rows.NDJSONRows(xs)
				if err != nil {
					panic(err) // plain structs cannot fail to marshal
				}
				return out
			},
			rows.EncodeEdges)
	case FormatCSV:
		return writeChunked(w, cluster.Parallelize(c, netflow.FlowsFromGraph(g), 0), netflow.CSVHeaderLine, rows.CSVKind,
			func(xs []netflow.Flow) []byte { return rows.CSVRows(xs) },
			replay.EncodeFlows)
	default:
		return EncodeArtifact(w, g, format)
	}
}

// writeChunked runs one remotable row-encode stage over the pre-partitioned
// records and writes header plus the row chunks in partition order. Callers
// hand it a dataset (ParallelizeEdges for columnar edge sources) so record
// batches stream into partition storage without a monolithic row slice.
func writeChunked[T any](w io.Writer, ds *cluster.Dataset[T], header, kind string,
	local func(xs []T) []byte, payload func(xs []T) []byte) error {
	c := ds.Cluster()
	chunks := cluster.MapPartitionsRemotable(ds, kind,
		func(part int, xs []T) []byte { return local(xs) },
		func(part int, xs []T) []byte { return payload(xs) },
		func(result []byte) ([]byte, error) { return result, nil })
	if err := c.Err(); err != nil {
		return err
	}
	if header != "" {
		if _, err := io.WriteString(w, header); err != nil {
			return err
		}
	}
	for i := 0; i < chunks.NumPartitions(); i++ {
		if _, err := w.Write(chunks.Partition(i)); err != nil {
			return err
		}
	}
	return nil
}
