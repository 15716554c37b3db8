package serve

import (
	"context"
	"fmt"
	"io"

	"csb/internal/cluster"
	"csb/internal/core"
	"csb/internal/dist/rows"
	"csb/internal/graph"
	"csb/internal/scenario"
)

// EngineShape fixes the virtual-cluster topology artifacts are generated on.
// None of it is part of artifact identity. Nodes and CoresPerNode are
// placement: every draw is keyed to a block of the element index, never to
// a partition (see internal/cluster). The fault-tolerance knobs change the
// attempt schedule, never the committed bytes (see
// internal/cluster/fault.go), so chaos-enabled daemons keep serving
// cache-compatible artifacts.
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
// returns the encoded artifact bytes. The bytes are a pure function of the
// spec; ctx cancellation aborts between engine stages.
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
// and anything else that encodes a graph share one set of bytes. Every
// format writes its in-process encoding.
func EncodeArtifact(w io.Writer, g *graph.Graph, format string) error {
	out, err := encodeArtifactOn(g, format, nil)
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// encodeArtifactOn returns g's artifact bytes. csbg is encoded once, in
// place: Graph.NewCSBG allocates the exact encoding and writes the header,
// then the edge records fill it as one local stage on c (cluster.FillRanges),
// partition-parallel, or serially over [0, n) when c is nil. Each record sits
// at its edge index times graph.EdgeRecordLen, so the bytes are Graph.Write's
// on any partitioning. csbg is not distributed — its result bytes equal its
// input bytes, so shipping them wins nothing. The text formats are their
// rows.Format's encoding on c, chunk-parallel and remotable when c has a
// TaskExecutor and one presized slice otherwise (see internal/dist/rows).
func encodeArtifactOn(g *graph.Graph, format string, c *cluster.Cluster) ([]byte, error) {
	var f *rows.Format
	switch format {
	case FormatCSBG:
		enc, records := g.NewCSBG()
		fill := func(lo, hi int) { g.EncodeRecords(records, lo, hi) }
		n := int(g.NumEdges())
		if c == nil {
			fill(0, n)
		} else {
			defer c.Scope("encode.csbg")()
			if err := cluster.FillRanges(c, n, int64(len(records)), fill); err != nil {
				return nil, err
			}
		}
		return enc, nil
	case FormatTSV, "":
		f = &rows.TSV
	case FormatCSV:
		f = &rows.CSV
	case FormatNDJSON:
		f = &rows.NDJSON
	default:
		return nil, fmt.Errorf("serve: unknown artifact format %q", format)
	}
	return f.Encode(g, c)
}
