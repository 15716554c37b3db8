// Command csbbench regenerates the paper's evaluation: one sub-experiment
// per figure/table of Section V, printed as tab-separated tables. Sizes
// default to laptop scale; the shapes (linearity, who wins, crossovers)
// reproduce the paper — see EXPERIMENTS.md.
//
// Usage:
//
//	csbbench -exp fig5
//	csbbench -exp fig6 -sizes 1000,10000,100000 -fractions 0.1,0.3,0.6,0.9
//	csbbench -exp fig9 -nodes 60
//	csbbench -exp all
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"csb/internal/bench"
	"csb/internal/cluster"
	"csb/internal/core"
	"csb/internal/netflow"
	"csb/internal/pcap"
	"csb/internal/replay"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("csbbench: ")

	var (
		exp       = flag.String("exp", "all", "experiment: fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 table1 baselines extended fourvs chaos replay dist all")
		hosts     = flag.Int("hosts", 100, "seed trace hosts")
		sessions  = flag.Int("sessions", 2000, "seed trace sessions")
		rngSeed   = flag.Uint64("seed", bench.DefaultSeed, "RNG seed")
		synEdges  = flag.Int64("edges", 2000000, "synthetic size for fig5/fig8/fig12")
		sizesArg  = flag.String("sizes", "50000,200000,800000,3200000", "size sweep for fig6/7/9/10/11")
		fracArg   = flag.String("fractions", "0.1,0.3,0.6,0.9", "PGPBA fractions for fig6/7")
		nodes     = flag.Int("nodes", 60, "virtual nodes for fig9-11")
		coresPer  = flag.Int("cores-per-node", 12, "virtual cores per node")
		nodesArg  = flag.String("node-sweep", "10,20,30,40,50,60", "node counts for fig12")
		coreSweep = flag.String("core-sweep", "", "virtual core counts for fig8 (default 1,2,4,...,20)")
		traceOut  = flag.String("trace", "", "write Chrome trace-event JSON of every engine stage to this file (fig8-12)")
		stageTab  = flag.Bool("stages", false, "print the stage table after cluster experiments (fig8-12)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		stop := startCPUProfile(*cpuProf)
		defer stop()
	}
	if *memProf != "" {
		defer writeHeapProfile(*memProf)
	}
	var tracer *cluster.Tracer
	if *traceOut != "" || *stageTab {
		tracer = cluster.NewTracer()
	}

	seed, err := core.SyntheticSeed(*hosts, *sessions, *rngSeed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("seed: %d vertices, %d edges", seed.Graph.NumVertices(), seed.Graph.NumEdges())

	sizes := parseInt64s(*sizesArg)
	fractions := parseFloats(*fracArg)
	nodeSweep := parseInts(*nodesArg)
	cores := parseInts(*coreSweep)
	if len(cores) == 0 {
		// The paper sweeps 1..20 cores on one node; the virtual-time model
		// makes the same sweep meaningful regardless of physical cores.
		cores = []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	}

	runs := map[string]func(){
		"fig5":      func() { fig5(seed, *synEdges, *rngSeed) },
		"fig6":      func() { veracity(seed, sizes, fractions, *rngSeed, true) },
		"fig7":      func() { veracity(seed, sizes, fractions, *rngSeed, false) },
		"fig8":      func() { fig8(seed, *synEdges, cores, *rngSeed, tracer) },
		"fig9":      func() { sizeSweep(seed, sizes, *nodes, *coresPer, *rngSeed, "seconds", tracer) },
		"fig10":     func() { sizeSweep(seed, sizes, *nodes, *coresPer, *rngSeed, "throughput", tracer) },
		"fig11":     func() { sizeSweep(seed, sizes, *nodes, *coresPer, *rngSeed, "memory", tracer) },
		"fig12":     func() { fig12(seed, *synEdges, nodeSweep, *coresPer, *rngSeed, tracer) },
		"table1":    func() { table1(seed, *rngSeed) },
		"baselines": func() { baselines(seed, *synEdges, *rngSeed) },
		"extended":  func() { extended(seed, *synEdges, *rngSeed) },
		"fourvs":    func() { fourVs(seed, *synEdges, *rngSeed) },
		"chaos":     func() { chaos(seed, *synEdges, *rngSeed) },
		"replay":    func() { replayExp(*hosts, *sessions, *rngSeed) },
		"dist":      func() { distExp(*synEdges, *rngSeed) },
	}
	if *exp == "all" {
		for _, name := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table1", "baselines", "extended", "fourvs"} {
			fmt.Printf("\n=== %s ===\n", name)
			runs[name]()
		}
		finishTrace(tracer, *traceOut, *stageTab)
		return
	}
	run, ok := runs[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q", *exp)
	}
	run()
	finishTrace(tracer, *traceOut, *stageTab)
}

// startCPUProfile begins pprof CPU capture; the returned func stops it.
func startCPUProfile(path string) func() {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		log.Fatal(err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeHeapProfile dumps a GC-settled heap profile.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Fatal(err)
	}
}

// finishTrace writes the collected spans as Chrome trace-event JSON and/or a
// plain-text stage table. No-op when tracer is nil.
func finishTrace(tracer *cluster.Tracer, traceOut string, table bool) {
	if tracer == nil {
		return
	}
	if n := len(tracer.Spans()); n == 0 {
		log.Printf("trace: no stages recorded (only fig8-12 run on the cluster engine)")
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d stage spans to %s", len(tracer.Spans()), traceOut)
	}
	if table {
		fmt.Println("\n# Stage table")
		if err := tracer.WriteStageTable(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

func fig5(seed *core.Seed, edges int64, rngSeed uint64) {
	res, err := bench.Fig5(seed, edges, rngSeed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# Figure 5: normalized degree distributions (log-log)")
	for _, s := range []bench.Series{res.Seed, res.PGPBA, res.PGSK} {
		fmt.Printf("# series %s (%d points)\n", s.Name, len(s.Xs))
		fmt.Println("norm_degree\tfraction_of_vertices")
		for i := range s.Xs {
			fmt.Printf("%.6e\t%.6e\n", s.Xs[i], s.Ys[i])
		}
	}
}

func veracity(seed *core.Seed, sizes []int64, fractions []float64, rngSeed uint64, degree bool) {
	pts, err := bench.Veracity(seed, sizes, fractions, rngSeed)
	if err != nil {
		log.Fatal(err)
	}
	if degree {
		fmt.Println("# Figure 6: degree veracity vs size (lower is better)")
	} else {
		fmt.Println("# Figure 7: PageRank veracity vs size (lower is better)")
	}
	fmt.Println("generator\tfraction\tedges\tscore")
	for _, p := range pts {
		score := p.Degree
		if !degree {
			score = p.PageRank
		}
		fmt.Printf("%s\t%g\t%d\t%.6e\n", p.Generator, p.Fraction, p.Edges, score)
	}
}

func fig8(seed *core.Seed, edges int64, cores []int, rngSeed uint64, tracer *cluster.Tracer) {
	pts, err := bench.SingleNodeThroughput(seed, edges, cores, rngSeed, tracer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# Figure 8: single-node throughput vs cores (virtual makespan, 24-way workload)")
	fmt.Println("generator\tcores\tvirtual_seconds\tedges_per_virtual_sec")
	for _, p := range pts {
		fmt.Printf("%s\t%d\t%.3f\t%.0f\n", p.Generator, p.Cores, p.Seconds, p.Throughput)
	}
}

func sizeSweep(seed *core.Seed, sizes []int64, nodes, coresPer int, rngSeed uint64, metric string, tracer *cluster.Tracer) {
	pts, err := bench.SizeSweep(seed, sizes, cluster.Config{Nodes: nodes, CoresPerNode: coresPer, Tracer: tracer}, rngSeed)
	if err != nil {
		log.Fatal(err)
	}
	switch metric {
	case "seconds":
		fmt.Printf("# Figure 9: generation time vs edges (%d virtual nodes)\n", nodes)
		fmt.Println("generator\tedges\tvirtual_seconds")
		for _, p := range pts {
			fmt.Printf("%s\t%d\t%.4f\n", p.Generator, p.Edges, p.Seconds)
		}
	case "throughput":
		fmt.Printf("# Figure 10: throughput vs edges, with property overhead (%d virtual nodes)\n", nodes)
		fmt.Println("generator\tedges\tedges_per_virtual_sec\tprop_overhead_pct")
		for _, p := range pts {
			fmt.Printf("%s\t%d\t%.0f\t%.1f\n", p.Generator, p.Edges, p.Throughput, 100*p.PropsOverhead)
		}
	case "memory":
		fmt.Printf("# Figure 11: peak worker memory vs edges (%d virtual nodes)\n", nodes)
		fmt.Println("generator\tedges\tbytes_per_node")
		for _, p := range pts {
			fmt.Printf("%s\t%d\t%d\n", p.Generator, p.Edges, p.BytesPerNode)
		}
	}
}

func fig12(seed *core.Seed, edges int64, nodeCounts []int, coresPer int, rngSeed uint64, tracer *cluster.Tracer) {
	pts, err := bench.StrongScaling(seed, edges, nodeCounts, coresPer, rngSeed, tracer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# Figure 12: strong-scaling speedup, %d edges\n", edges)
	fmt.Println("generator\tnodes\tvirtual_seconds\tspeedup")
	for _, p := range pts {
		fmt.Printf("%s\t%d\t%.4f\t%.2f\n", p.Generator, p.Nodes, p.Seconds, p.Speedup)
	}
}

func table1(seed *core.Seed, rngSeed uint64) {
	res, err := bench.Table1(seed, rngSeed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# Table I: anomaly detection parameters (trained and PSO-tuned thresholds)")
	fmt.Println("parameter\ttrained\ttuned\tdescription")
	for _, r := range res.Rows {
		fmt.Printf("%s\t%.2f\t%.2f\t%s\n", r.Parameter, r.Trained, r.Tuned, r.Description)
	}
	fmt.Printf("trained detection: TP=%d FP=%d FN=%d F1=%.3f\n",
		res.TrainedOutcome.TruePositives, res.TrainedOutcome.FalsePositives,
		res.TrainedOutcome.FalseNegatives, res.TrainedOutcome.F1())
	fmt.Printf("tuned detection:   TP=%d FP=%d FN=%d F1=%.3f\n",
		res.TunedOutcome.TruePositives, res.TunedOutcome.FalsePositives,
		res.TunedOutcome.FalseNegatives, res.TunedOutcome.F1())
}

func baselines(seed *core.Seed, edges int64, rngSeed uint64) {
	pts, err := bench.Baselines(seed, edges, rngSeed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# Baseline comparison: classical models vs the paper's generators")
	fmt.Println("model\tedges\tdegree_veracity\tpagerank_veracity\tdegree_ks\ttail_ratio")
	for _, p := range pts {
		fmt.Printf("%s\t%d\t%.3e\t%.3e\t%.3f\t%.1f\n",
			p.Model, p.Edges, p.Degree, p.PageRank, p.DegreeKS, p.TailRatio)
	}
}

func extended(seed *core.Seed, edges int64, rngSeed uint64) {
	pts, err := bench.ExtendedVeracity(seed, edges, rngSeed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# Extended structural veracity: betweenness / components / clustering")
	fmt.Println("generator\tedges\tbetweenness_score\tgiant_delta\tclustering_delta")
	for _, p := range pts {
		fmt.Printf("%s\t%d\t%.3e\t%.4f\t%.4f\n", p.Generator, p.Edges, p.Betweenness, p.GiantDelta, p.ClusteringDelta)
	}
}

func fourVs(seed *core.Seed, edges int64, rngSeed uint64) {
	vs, err := bench.EvaluateFourVs(seed, edges, rngSeed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# Four V's: Volume / Velocity / Variety / Veracity (paper Section I)")
	fmt.Println("generator\tedges\tvertices\tedges_per_sec\tproto_entropy(seed)\tport_entropy(seed)\tdeg_veracity\tpr_veracity")
	for _, v := range vs {
		fmt.Printf("%s\t%d\t%d\t%.0f\t%.2f(%.2f)\t%.2f(%.2f)\t%.3e\t%.3e\n",
			v.Generator, v.VolumeEdges, v.VolumeVertices, v.VelocityEdgesPerSec,
			v.VarietyProtoState, v.SeedVarietyProtoState,
			v.VarietyDstPort, v.SeedVarietyDstPort,
			v.VeracityDegree, v.VeracityPageRank)
	}
}

// chaos measures the cost and verifies the safety of the engine's fault
// tolerance: for each generator and fault rate, it regenerates the same
// fixed-seed graph under deterministic fault injection (retries and
// speculation enabled) and reports the attempt accounting plus whether the
// output stayed byte-identical to the fault-free baseline. Not part of
// "all": it regenerates every dataset several times.
func chaos(seed *core.Seed, edges int64, rngSeed uint64) {
	if edges > 200_000 {
		edges = 200_000 // chaos sweeps regenerate each point; keep them snappy
	}
	fmt.Println("# Chaos: fault-injection determinism and retry/speculation cost")
	fmt.Println("generator\tfault_rate\tattempts\tfailed\tretries\tspeculative\tvirtual_seconds\tidentical")
	for _, gen := range []string{core.GenPGPBA, core.GenPGSK} {
		var baseline []byte
		for _, rate := range []float64{0, 0.05, 0.2} {
			cfg := cluster.Config{
				Nodes: 2, CoresPerNode: 2,
				MaxTaskRetries: 8, Speculation: true,
			}
			if rate > 0 {
				plan := cluster.NewFaultPlan(rngSeed, rate)
				plan.MaxFaultyAttempts = 4
				cfg.Faults = plan
			}
			c, err := cluster.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			g, err := core.NewGenerator(gen, 0.3, rngSeed, c)
			if err != nil {
				log.Fatal(err)
			}
			out, err := g.Generate(seed, edges)
			if err != nil {
				log.Fatal(err)
			}
			var buf strings.Builder
			if err := out.Write(&buf); err != nil {
				log.Fatal(err)
			}
			rendered := []byte(buf.String())
			if rate == 0 {
				baseline = rendered
			}
			m := c.Metrics()
			attempts := m.Tasks + m.TaskRetries // committed tasks + re-attempts
			fmt.Printf("%s\t%.2f\t%d\t%d\t%d\t%d\t%.4f\t%v\n",
				gen, rate, attempts, m.TaskFailures, m.TaskRetries, m.SpeculativeTasks,
				m.Makespan.Seconds(), string(rendered) == string(baseline))
		}
	}
}

// replayExp measures the live-replay subsystem: sustained fan-out rate at
// 1/4/16 subscribers (full speed, block policy — every stream complete), then
// slow-subscriber isolation under the drop and disconnect policies (one
// stalled subscriber must not slow the healthy ones). Real wall time, not the
// virtual clock: the subsystem under test is the delivery path itself.
func replayExp(hosts, sessions int, rngSeed uint64) {
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(hosts, sessions, rngSeed))
	if err != nil {
		log.Fatal(err)
	}
	base := netflow.Assemble(pkts, 0)
	if len(base) == 0 {
		log.Fatal("no flows assembled from the seed trace")
	}
	flows := bench.TileFlows(base, 50_000/len(base)+1)

	fmt.Println("# Replay fan-out: sustained flows/sec vs subscriber count (speed 0, block policy)")
	fmt.Println("subscribers\tflows\telapsed_ms\tflows_per_sec\tdelivered_min")
	pts, err := bench.ReplayFanout(flows, []int{1, 4, 16})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		fmt.Printf("%d\t%d\t%.1f\t%.0f\t%d\n",
			p.Subscribers, p.Flows, float64(p.Elapsed.Microseconds())/1000, p.FlowsPerSec, p.DeliveredMin)
	}

	slowFlows := flows
	if len(slowFlows) > 10_000 {
		slowFlows = slowFlows[:10_000]
	}
	fmt.Println("\n# Replay isolation: 4 healthy + 1 stalled subscriber, rate-capped at 20k flows/sec")
	fmt.Println("policy\thealthy\tflows\thealthy_min\tflows_per_sec\tdropped\tdisconnected")
	sp, err := bench.ReplaySlowSubscriber(slowFlows, 4, 20_000, []replay.LagPolicy{replay.PolicyDrop, replay.PolicyDisconnect})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range sp {
		fmt.Printf("%s\t%d\t%d\t%d\t%.0f\t%d\t%d\n",
			p.Policy, p.Healthy, p.Flows, p.HealthyMin, p.FlowsPerSec, p.Dropped, p.Disconnected)
	}
}

// distExp sweeps one fixed-seed PGSK generation job over local worker
// counts, reporting wall time and throughput, and verifying every artifact
// digest against the in-process run.
func distExp(edges int64, rngSeed uint64) {
	fmt.Println("# Distributed execution: one generation job at 0/1/2/4 local workers (0 = in-process)")
	fmt.Println("workers\twall_ms\tedges_per_sec\tremote_tasks\tdigest_match")
	rows, err := bench.DistSweep(edges, []int{1, 2, 4}, rngSeed)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range rows {
		fmt.Printf("%d\t%.1f\t%.0f\t%d\t%v\n",
			d.Workers, d.WallSeconds*1000, d.EdgesPerSec, d.RemoteTasks, d.DigestMatch)
		if !d.DigestMatch {
			log.Fatalf("dist sweep at %d workers diverged from the in-process artifact", d.Workers)
		}
	}
}

func parseInt64s(s string) []int64 {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csbbench: bad size %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, v := range parseInt64s(s) {
		out = append(out, int(v))
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csbbench: bad fraction %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
