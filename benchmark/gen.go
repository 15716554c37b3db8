package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"csb/internal/cluster"
	"csb/internal/core"
	"csb/internal/graph"
	"csb/internal/netflow"
	"csb/internal/pcap"
	"csb/internal/serve"
)

// genWorkload is the paper's batch use (gen-pgpba, gen-pgsk): every
// operation builds the csbg artifact of a fresh-seed spec on a fresh cluster
// of the pinned shape, through serve.BuildArtifact.
type genWorkload struct {
	wl   string
	gen  string
	sz   sizes
	seed uint64
	// tamper, set only by tests, damages an artifact between the build and
	// its check.
	tamper func([]byte)

	firstSum [sha256.Size]byte // digest of spec 0's artifact
	haveSum  bool
	traced   []genLayers
}

func newGenWorkload(wl string, sz sizes, seed uint64) *genWorkload {
	gen := serve.GenPGPBA
	if wl == wlGenPGSK {
		gen = serve.GenPGSK
	}
	return &genWorkload{wl: wl, gen: gen, sz: sz, seed: seed}
}

func (w *genWorkload) name() string { return w.wl }
func (w *genWorkload) clients() int { return 1 }
func (w *genWorkload) period() int  { return 1 }

// spec returns the i-th job of the run; warm-up jobs use negative indices.
func (w *genWorkload) spec(i int) serve.Spec {
	s := serve.Spec{Generator: w.gen, Seed: derive(w.seed, w.wl, i), Edges: w.sz.GenEdges, Format: serve.FormatCSBG}
	if err := s.Normalize(); err != nil {
		panic(err) // the fields above are constants of the benchmark
	}
	return s
}

func build(ctx context.Context, spec serve.Spec) ([]byte, error) {
	c, err := newPinnedCluster(ctx, nil)
	if err != nil {
		return nil, err
	}
	return serve.BuildArtifact(ctx, spec, c)
}

func (w *genWorkload) setUp(ctx context.Context) error {
	for i := 1; i <= w.sz.Warmup; i++ {
		if _, err := build(ctx, w.spec(-i)); err != nil {
			return err
		}
	}
	return nil
}

func (w *genWorkload) tearDown() error { return nil }

func (w *genWorkload) op(ctx context.Context, lane, i int, rec *recorder) outcome {
	spec := w.spec(i)
	var (
		data []byte
		err  error
	)
	t0 := time.Now()
	if rec == nil {
		data, err = build(ctx, spec)
	} else {
		var gl genLayers
		data, gl, err = buildDecomposed(ctx, spec, rec, i)
		w.traced = append(w.traced, gl)
	}
	out := outcome{dur: time.Since(t0)}
	if err != nil {
		out.err = fmt.Errorf("%s job %d: %w", w.wl, i, err)
		return out
	}
	// Checks run off the window clock.
	t1 := time.Now()
	if w.tamper != nil {
		w.tamper(data)
	}
	out.edges, out.err = checkGraphArtifact(data, spec.Edges, w.sz.EdgeSlack)
	if i == 0 {
		w.firstSum, w.haveSum = sha256.Sum256(data), true
	}
	out.pause = time.Since(t1)
	return out
}

// checkGraphArtifact decodes a csbg artifact and returns its edge count,
// which must be within -1% and +slack% of the request. PGSK lands within
// 0.5% either way; PGPBA never undershoots and its last round overshoots, by
// up to 2.5% at 500k edges and by more the smaller the graph.
func checkGraphArtifact(data []byte, want, slack int64) (int64, error) {
	g, err := graph.Read(bytes.NewReader(data))
	if err != nil {
		return 0, fmt.Errorf("artifact does not decode: %w", err)
	}
	n := g.NumEdges()
	if n*100 < want*99 || n*100 > want*(100+slack) {
		return n, fmt.Errorf("artifact has %d edges, want %d -1%%/+%d%%", n, want, slack)
	}
	return n, nil
}

// finish rebuilds the first spec: same spec, same bytes.
func (w *genWorkload) finish(ctx context.Context) []error {
	if !w.haveSum {
		return []error{fmt.Errorf("%s: first job did not complete, determinism unchecked", w.wl)}
	}
	data, err := build(ctx, w.spec(0))
	if err != nil {
		return []error{fmt.Errorf("%s: rebuilding job 0: %w", w.wl, err)}
	}
	if sha256.Sum256(data) != w.firstSum {
		return []error{fmt.Errorf("%s: job 0 rebuilt to different bytes", w.wl)}
	}
	return nil
}

// genLayers is what one decomposed build measured.
type genLayers struct {
	synthesize, assemble, buildGraph, analyze, fit, generate, encode time.Duration
	encodedBytes                                                     int
	edgesOutRatio                                                    float64
	stages                                                           stageAgg
}

// buildDecomposed is serve.BuildArtifact taken apart at its layer
// boundaries, with a span around every call and the engine's stage spans
// nested under the generate call. It must produce BuildArtifact's bytes.
func buildDecomposed(ctx context.Context, spec serve.Spec, rec *recorder, op int) ([]byte, genLayers, error) {
	var gl genLayers
	root := rec.begin(rootSpan, op, 0, -1)
	defer rec.end(root)
	timed := func(name string, d *time.Duration, fn func() error) error {
		id := rec.begin(name, op, 0, root)
		t0 := time.Now()
		err := fn()
		*d = time.Since(t0)
		rec.end(id)
		return err
	}

	tracerEpoch := time.Now()
	tracer := cluster.NewTracer()
	c, err := newPinnedCluster(ctx, tracer)
	if err != nil {
		return nil, gl, err
	}
	var (
		pkts  []pcap.PacketInfo
		flows []netflow.Flow
		g0, g *graph.Graph
		seed  *core.Seed
	)
	if err := timed("pcap.synthesize", &gl.synthesize, func() (err error) {
		pkts, err = pcap.Synthesize(pcap.DefaultTraceConfig(spec.Hosts, spec.Sessions, spec.Seed))
		return err
	}); err != nil {
		return nil, gl, err
	}
	timed("netflow.assemble", &gl.assemble, func() error { flows = netflow.Assemble(pkts, 0); return nil })
	timed("netflow.buildgraph", &gl.buildGraph, func() error { g0 = netflow.BuildGraph(flows); return nil })
	if err := timed("core.analyze", &gl.analyze, func() (err error) { seed, err = core.Analyze(g0); return err }); err != nil {
		return nil, gl, err
	}
	var gen core.Generator
	if spec.Generator == serve.GenPGSK {
		p := &core.PGSK{Seed: spec.Seed, Cluster: c}
		if err := timed("kronfit.fit", &gl.fit, func() error {
			init, err := p.FitSeed(seed)
			p.Initiator = &init
			return err
		}); err != nil {
			return nil, gl, err
		}
		gen = p
	} else {
		gen = &core.PGPBA{Fraction: spec.Fraction, Seed: spec.Seed, Cluster: c}
	}
	genID := rec.begin("core.generate", op, 0, root)
	t0 := time.Now()
	g, err = gen.Generate(seed, spec.Edges)
	gl.generate = time.Since(t0)
	rec.end(genID)
	if err != nil {
		return nil, gl, err
	}
	spans := tracer.Spans()
	gl.stages = aggregateStages(spans)
	for _, s := range spans {
		rec.add("cluster."+stageGroup(s.StageRecord), op, 0, genID, tracerEpoch.Add(s.Start), s.Real)
	}
	gl.edgesOutRatio = float64(g.NumEdges()) / float64(spec.Edges)

	var buf bytes.Buffer
	if err := timed("serve.encode", &gl.encode, func() error { return serve.EncodeArtifact(&buf, g, spec.Format) }); err != nil {
		return nil, gl, err
	}
	gl.encodedBytes = buf.Len()
	return buf.Bytes(), gl, nil
}

// stageGroup files an engine stage under one of the four cluster layers.
// coalesce repartitions, so it counts as data movement with the shuffles.
func stageGroup(s cluster.StageRecord) string {
	switch {
	case s.Op == "sample":
		return "sample"
	case strings.HasPrefix(s.Op, "distinct."), strings.HasPrefix(s.Op, "reduceByKey."),
		s.Op == "shuffle.coord", s.Op == "coalesce":
		return "shuffle"
	case s.Serial:
		return "serial"
	default:
		return "map"
	}
}

// stageAgg sums engine stage spans by layer.
type stageAgg struct {
	real                          map[string]time.Duration
	stages, tasks                 int
	shuffleBytes                  int64
	skewMax                       float64
	parWork, parReal              time.Duration
	distinctBytesIn, distinctKept int64
}

func aggregateStages(spans []cluster.TraceSpan) stageAgg {
	a := stageAgg{real: make(map[string]time.Duration)}
	for _, s := range spans {
		group := stageGroup(s.StageRecord)
		a.real[group] += s.Real
		a.stages++
		a.tasks += s.Tasks
		if group == "shuffle" {
			a.shuffleBytes += s.BytesIn
		}
		if !s.Serial {
			a.skewMax = max(a.skewMax, s.Skew)
			a.parWork += s.Work
			a.parReal += s.Real
		}
		switch s.Op {
		case "distinct.local":
			a.distinctBytesIn += s.BytesIn
		case "distinct.merge":
			a.distinctKept += s.BytesOut
		}
	}
	return a
}

func (a stageAgg) total() (d time.Duration) {
	for _, r := range a.real {
		d += r
	}
	return d
}

// setStageMetrics reports the cluster.* layer metrics as per-job medians
// over aggs (one aggregate per job).
func setStageMetrics(ms metricSet, aggs []stageAgg) {
	col := func(f func(stageAgg) float64) []float64 {
		xs := make([]float64, len(aggs))
		for i, a := range aggs {
			xs[i] = f(a)
		}
		return xs
	}
	n := len(aggs)
	for _, group := range []string{"map", "sample", "shuffle", "serial"} {
		ms.set("cluster."+group+"_ms", median(col(func(a stageAgg) float64 { return msOf(a.real[group]) })), n)
	}
	ms.set("cluster.stages", median(col(func(a stageAgg) float64 { return float64(a.stages) })), n)
	ms.set("cluster.tasks", median(col(func(a stageAgg) float64 { return float64(a.tasks) })), n)
	ms.set("cluster.shuffle_bytes", median(col(func(a stageAgg) float64 { return float64(a.shuffleBytes) })), n)
	ms.set("cluster.skew_max", median(col(func(a stageAgg) float64 { return a.skewMax })), n)
	ms.set("cluster.parallel_efficiency", median(col(func(a stageAgg) float64 {
		return float64(a.parWork) / (float64(a.parReal) * pinnedCores)
	})), n)
	var keep []float64
	for _, a := range aggs {
		if a.distinctBytesIn > 0 {
			keep = append(keep, float64(a.distinctKept)/float64(a.distinctBytesIn))
		}
	}
	ms.set("kronecker.distinct_keep_ratio", median(keep), len(keep))
}

func (w *genWorkload) layers(ctx context.Context, ms metricSet, untraced phase) error {
	// The decomposed pipeline must be BuildArtifact: same spec, same bytes.
	data, _, err := buildDecomposed(ctx, w.spec(0), nil, 0)
	if err != nil {
		return err
	}
	if !w.haveSum || sha256.Sum256(data) != w.firstSum {
		return fmt.Errorf("decomposed build of job 0 differs from serve.BuildArtifact's bytes")
	}

	col := func(f func(genLayers) time.Duration) []time.Duration {
		ds := make([]time.Duration, len(w.traced))
		for i, gl := range w.traced {
			ds[i] = f(gl)
		}
		return ds
	}
	ms.setMedianMS("pcap.synthesize_ms", col(func(g genLayers) time.Duration { return g.synthesize }))
	ms.setMedianMS("netflow.assemble_ms", col(func(g genLayers) time.Duration { return g.assemble }))
	ms.setMedianMS("netflow.buildgraph_ms", col(func(g genLayers) time.Duration { return g.buildGraph }))
	ms.setMedianMS("core.analyze_ms", col(func(g genLayers) time.Duration { return g.analyze }))
	if w.gen == serve.GenPGSK {
		ms.setMedianMS("kronfit.fit_ms", col(func(g genLayers) time.Duration { return g.fit }))
	}
	ms.setMedianMS("core.generate_ms", col(func(g genLayers) time.Duration { return g.generate }))
	ms.setMedianMS("core.generate_self_ms", col(func(g genLayers) time.Duration { return g.generate - g.stages.total() }))
	ms.setMedianMS("serve.encode_ms.csbg", col(func(g genLayers) time.Duration { return g.encode }))
	var ratios, rates []float64
	var aggs []stageAgg
	for _, gl := range w.traced {
		ratios = append(ratios, gl.edgesOutRatio)
		rates = append(rates, float64(gl.encodedBytes)/1e6/gl.encode.Seconds())
		aggs = append(aggs, gl.stages)
	}
	ms.set("core.edges_out_ratio", median(ratios), len(ratios))
	ms.set("serve.encode_mb_per_s.csbg", median(rates), len(rates))
	setStageMetrics(ms, aggs)
	return nil
}
