package eval

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"csb/internal/core"
	"csb/internal/graph"
	"csb/internal/serve"
)

// Row is one grid cell's results.csv line: the cell identity followed by
// every metric. It travels between processes as JSON (the eval/cell task
// payload reply), so each numeric field round-trips exactly — shortest-form
// float JSON is lossless for float64. Spec and SHA256 name the artifact the
// metrics describe; the digest rides in the JSON and the cell log, not in
// results.csv, whose columns are a contract.
type Row struct {
	Cell     Cell          `json:"cell"`
	Spec     serve.Spec    `json:"spec"`
	SHA256   string        `json:"sha256"`
	Report   Report        `json:"report"`
	Utility  UtilityReport `json:"utility"`
	Vertices int64         `json:"vertices"`
	Edges    int64         `json:"edges"`
}

// Header is the results.csv column list, fixed by contract: downstream
// analysis (and the CI golden diff) depend on both the names and the order.
func Header() []string {
	return []string{
		"generator", "fraction", "size", "seed", "repeat", "gen_seed",
		"vertices", "edges",
		"js_degree", "emd_degree", "ks_degree",
		"js_flow_size", "emd_flow_size", "ks_flow_size",
		"js_duration", "emd_duration", "ks_duration",
		"js_dst_port", "emd_dst_port", "ks_dst_port",
		"js_proto", "emd_proto", "ks_proto",
		"degree_veracity", "pagerank_veracity",
		"clustering", "clustering_gap", "transitivity", "triangles",
		"assortativity", "assortativity_gap", "pagerank_corr",
		"base_f1", "synthetic_f1", "native_f1", "utility_gap",
	}
}

// fmtF renders a float for the CSV: shortest exact form, so the encoding is
// deterministic and lossless.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CSVRecord renders the row in Header order.
func (r *Row) CSVRecord() []string {
	c, rep, u := &r.Cell, &r.Report, &r.Utility
	return []string{
		c.Generator.Name, fmtF(c.Generator.Fraction),
		strconv.FormatInt(c.Size, 10),
		strconv.FormatUint(c.BaseSeed, 10),
		strconv.Itoa(c.Repeat),
		strconv.FormatUint(r.Spec.Seed, 10),
		strconv.FormatInt(r.Vertices, 10),
		strconv.FormatInt(r.Edges, 10),
		fmtF(rep.Degree.JS), fmtF(rep.Degree.EMD), fmtF(rep.Degree.KS),
		fmtF(rep.FlowSize.JS), fmtF(rep.FlowSize.EMD), fmtF(rep.FlowSize.KS),
		fmtF(rep.Duration.JS), fmtF(rep.Duration.EMD), fmtF(rep.Duration.KS),
		fmtF(rep.DstPort.JS), fmtF(rep.DstPort.EMD), fmtF(rep.DstPort.KS),
		fmtF(rep.Proto.JS), fmtF(rep.Proto.EMD), fmtF(rep.Proto.KS),
		fmtF(rep.DegreeVeracity), fmtF(rep.PageRankVeracity),
		fmtF(rep.Clustering), fmtF(rep.ClusteringGap), fmtF(rep.Transitivity),
		strconv.FormatInt(rep.Triangles, 10),
		fmtF(rep.Assortativity), fmtF(rep.AssortativityGap), fmtF(rep.PageRankCorr),
		fmtF(u.BaseF1), fmtF(u.SyntheticF1), fmtF(u.NativeF1), fmtF(u.UtilityGap),
	}
}

// WriteCSV renders header plus rows (in the given order) as the canonical
// results.csv bytes.
func WriteCSV(rows []Row) []byte {
	var b strings.Builder
	b.WriteString(strings.Join(Header(), ","))
	b.WriteByte('\n')
	for i := range rows {
		b.WriteString(strings.Join(rows[i].CSVRecord(), ","))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// CellPayload is the wire form of one cell execution: the whole normalized
// spec plus the cell coordinate, so a worker process needs no state beyond
// the payload — the property that makes a cell relocatable to any worker.
type CellPayload struct {
	Spec GridSpec `json:"spec"`
	Cell Cell     `json:"cell"`
}

// RunCell executes one grid cell: analyze the cell's seed trace once, build
// the cell's csbd artifact from it (serve.BuildFromSeed, BuildArtifact's
// bytes), decode it, and score that graph — fidelity against that same
// seed, utility against the held-out scenario. It is a pure function of
// (spec, cell) — no clock, no global RNG, no state shared with other cells —
// which is the determinism contract the whole harness rests on.
// Errors do not name the cell: the runner that scheduled it does, once.
func RunCell(sp *GridSpec, c Cell) (*Row, error) {
	spec, err := sp.CellSpec(&c)
	if err != nil {
		return nil, err
	}
	seed, err := core.SyntheticSeed(spec.Hosts, spec.Sessions, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("building seed: %w", err)
	}
	art, err := serve.BuildFromSeed(context.TODO(), spec, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("building artifact: %w", err)
	}
	sum := sha256.Sum256(art)
	g, err := graph.Read(bytes.NewReader(art))
	if err != nil {
		return nil, fmt.Errorf("decoding artifact: %w", err)
	}
	report, err := Evaluate(seed.Graph, g, Options{PageRankPoints: sp.PageRankPoints})
	if err != nil {
		return nil, err
	}
	utility, err := Utility(g, &sp.Utility, spec.Seed)
	if err != nil {
		return nil, err
	}
	return &Row{
		Cell:     c,
		Spec:     spec,
		SHA256:   hex.EncodeToString(sum[:]),
		Report:   *report,
		Utility:  *utility,
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
	}, nil
}

// RunCellBytes is RunCell over the wire encoding: JSON payload in, JSON row
// out. The local runner and the remote task executor share this one entry
// point, which is what guarantees local == distributed results byte for
// byte.
func RunCellBytes(payload []byte) ([]byte, error) {
	var p CellPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("decoding cell payload: %w", err)
	}
	row, err := RunCell(&p.Spec, p.Cell)
	if err != nil {
		return nil, err
	}
	return json.Marshal(row)
}
