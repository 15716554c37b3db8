// Command csbbench runs the parts of the paper's evaluation that need a
// binary: the host-timed virtual-cluster sweeps of Figs 8–12, and the
// Section II baseline-model comparison, printed as tab-separated tables.
// Sizes default to laptop scale; the shapes (linearity, who wins,
// crossovers) reproduce the paper — see EXPERIMENTS.md. Figs 6–7 come from
// the csbeval grid (experiments.json, experiments-large.json); Fig 5 and
// Table I are tests that pin their EXPERIMENTS.md tables
// (internal/eval TestFig5DegreeDistributions, internal/attack TestTable1).
//
// Usage:
//
//	csbbench -exp fig8
//	csbbench -exp fig9 -sizes 50000,200000 -nodes 60
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

	"csb/internal/cluster"
	"csb/internal/core"
)

// defaultSeed is the RNG seed of every experiment unless -seed overrides it.
const defaultSeed = 20171010 // the SMIA capture date, 2011-10-10, reversed

func main() {
	log.SetFlags(0)
	log.SetPrefix("csbbench: ")

	var (
		exp       = flag.String("exp", "all", "experiment: fig8 fig9 fig10 fig11 fig12 baselines all")
		hosts     = flag.Int("hosts", 100, "seed trace hosts")
		sessions  = flag.Int("sessions", 2000, "seed trace sessions")
		rngSeed   = flag.Uint64("seed", defaultSeed, "RNG seed")
		synEdges  = flag.Int64("edges", 2000000, "synthetic size for fig8/fig12/baselines")
		sizesArg  = flag.String("sizes", "50000,200000,800000,3200000", "size sweep for fig9/10/11")
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
	nodeSweep := parseInts(*nodesArg)
	cores := parseInts(*coreSweep)
	if len(cores) == 0 {
		// The paper sweeps 1..20 cores on one node; the virtual-time model
		// makes the same sweep meaningful regardless of physical cores.
		cores = []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	}

	runs := map[string]func(){
		"fig8":      func() { fig8(seed, *synEdges, cores, *rngSeed, tracer) },
		"fig9":      func() { printSizeSweep(seed, sizes, *nodes, *coresPer, *rngSeed, "seconds", tracer) },
		"fig10":     func() { printSizeSweep(seed, sizes, *nodes, *coresPer, *rngSeed, "throughput", tracer) },
		"fig11":     func() { printSizeSweep(seed, sizes, *nodes, *coresPer, *rngSeed, "memory", tracer) },
		"fig12":     func() { fig12(seed, *synEdges, nodeSweep, *coresPer, *rngSeed, tracer) },
		"baselines": func() { printBaselines(seed, *synEdges, *rngSeed) },
	}
	if *exp == "all" {
		for _, name := range []string{"fig8", "fig9", "fig10", "fig11", "fig12", "baselines"} {
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

func fig8(seed *core.Seed, edges int64, cores []int, rngSeed uint64, tracer *cluster.Tracer) {
	pts, err := singleNodeThroughput(seed, edges, cores, rngSeed, tracer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# Figure 8: single-node throughput vs cores (virtual makespan, 24-way workload)")
	fmt.Println("generator\tcores\tvirtual_seconds\tedges_per_virtual_sec")
	for _, p := range pts {
		fmt.Printf("%s\t%d\t%.3f\t%.0f\n", p.generator, p.cores, p.seconds, p.throughput)
	}
}

func printSizeSweep(seed *core.Seed, sizes []int64, nodes, coresPer int, rngSeed uint64, metric string, tracer *cluster.Tracer) {
	pts, err := sizeSweep(seed, sizes, cluster.Config{Nodes: nodes, CoresPerNode: coresPer, Tracer: tracer}, rngSeed)
	if err != nil {
		log.Fatal(err)
	}
	switch metric {
	case "seconds":
		fmt.Printf("# Figure 9: generation time vs edges (%d virtual nodes)\n", nodes)
		fmt.Println("generator\tedges\tvirtual_seconds")
		for _, p := range pts {
			fmt.Printf("%s\t%d\t%.4f\n", p.generator, p.edges, p.seconds)
		}
	case "throughput":
		fmt.Printf("# Figure 10: throughput vs edges, with property overhead (%d virtual nodes)\n", nodes)
		fmt.Println("generator\tedges\tedges_per_virtual_sec\tprop_overhead_pct")
		for _, p := range pts {
			fmt.Printf("%s\t%d\t%.0f\t%.1f\n", p.generator, p.edges, p.throughput, 100*p.propsOverhead)
		}
	case "memory":
		fmt.Printf("# Figure 11: peak worker memory vs edges (%d virtual nodes)\n", nodes)
		fmt.Println("generator\tedges\tbytes_per_node")
		for _, p := range pts {
			fmt.Printf("%s\t%d\t%d\n", p.generator, p.edges, p.bytesPerNode)
		}
	}
}

func fig12(seed *core.Seed, edges int64, nodeCounts []int, coresPer int, rngSeed uint64, tracer *cluster.Tracer) {
	pts, err := strongScaling(seed, edges, nodeCounts, coresPer, rngSeed, tracer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# Figure 12: strong-scaling speedup, %d edges\n", edges)
	fmt.Println("generator\tnodes\tvirtual_seconds\tspeedup")
	for _, p := range pts {
		fmt.Printf("%s\t%d\t%.4f\t%.2f\n", p.generator, p.nodes, p.seconds, p.speedup)
	}
}

func printBaselines(seed *core.Seed, edges int64, rngSeed uint64) {
	pts, err := baselines(seed, edges, rngSeed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# Baseline comparison: classical models vs the paper's generators")
	fmt.Println("model\tedges\tdegree_veracity\tpagerank_veracity\tdegree_ks\ttail_ratio")
	for _, p := range pts {
		fmt.Printf("%s\t%d\t%.3e\t%.3e\t%.3f\t%.1f\n",
			p.model, p.edges, p.degree, p.pageRank, p.degreeKS, p.tailRatio)
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
