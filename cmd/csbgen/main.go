// Command csbgen generates synthetic property graphs with PGPBA or PGSK
// from a seed graph (a CSBG file produced by csbseed, or a synthetic seed
// built on the fly). The seed graph is analyzed on every run; csbseed
// -graph-out at the same -hosts/-sessions/-seed gives the synthetic path's
// bytes.
//
// Usage:
//
//	csbgen -seed-graph seed.csbg -gen pgpba -edges 1000000 -fraction 0.1 -out syn.csbg
//	csbgen -hosts 100 -sessions 2000 -gen pgsk -edges 500000 -out syn.csbg
//	csbgen -scenario spec.json -scenario-out labeled.csbf
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"csb/internal/cluster"
	"csb/internal/core"
	"csb/internal/graph"
	"csb/internal/kronfit"
	"csb/internal/pagerank"
	"csb/internal/scenario"
	"csb/internal/serve"
	"csb/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "csbgen:", err)
		os.Exit(1)
	}
}

// run executes the tool; factored from main for testing.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("csbgen", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		seedGraph = fs.String("seed-graph", "", "seed property graph (CSBG); empty synthesizes one")
		hosts     = fs.Int("hosts", 100, "hosts for the synthetic seed")
		sessions  = fs.Int("sessions", 2000, "sessions for the synthetic seed")
		gen       = fs.String("gen", "pgpba", "generator: pgpba or pgsk")
		edges     = fs.Int64("edges", 100000, "desired number of edges")
		fraction  = fs.Float64("fraction", 0.1, "PGPBA fraction parameter")
		rngSeed   = fs.Uint64("seed", 42, "RNG seed")
		nodes     = fs.Int("nodes", 1, "virtual cluster nodes")
		cores     = fs.Int("cores", 0, "cores per virtual node (0 = 1)")
		out       = fs.String("out", "", "output CSBG file")
		edgeList  = fs.String("edgelist-out", "", "output TSV edge list")
		veracity  = fs.Bool("veracity", false, "also report degree/PageRank veracity vs the seed")
		traceOut  = fs.String("trace", "", "write Chrome trace-event JSON of engine stages to this file")
		stageTab  = fs.Bool("stages", false, "print a plain-text stage table after generation")
		cpuProf   = fs.String("cpuprofile", "", "write CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write heap profile to this file")
		taskRetry = fs.Int("max-task-retries", 0, "engine task retry budget (0 = default, negative disables)")
		faultRate = fs.Float64("fault-rate", 0, "injected engine fault rate for chaos runs (0 disables)")
		faultSeed = fs.Uint64("fault-seed", 1, "seed of the deterministic fault plan")
		scenIn    = fs.String("scenario", "", "labeled-scenario spec (JSON); compiles to a CSBF1+CSBL1 labeled artifact")
		scenOut   = fs.String("scenario-out", "", "output path of the labeled artifact (required with -scenario)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var tracer *cluster.Tracer
	if *traceOut != "" || *stageTab {
		tracer = cluster.NewTracer()
	}
	// Nothing here changes the output bytes: -nodes/-cores are placement,
	// and tracing, retries and injected faults touch only the attempt
	// schedule.
	ccfg := cluster.Config{
		Nodes: *nodes, CoresPerNode: *cores, Tracer: tracer,
		MaxTaskRetries: *taskRetry,
	}
	if *faultRate > 0 {
		ccfg.Faults = cluster.NewFaultPlan(*faultSeed, *faultRate)
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		return err
	}

	if *scenIn != "" {
		// Scenario mode shares the chaos/topology flags: a generator
		// background runs on the same cluster a plain generation would, so
		// -fault-rate exercises the fault model on labeled artifacts too —
		// without changing their bytes.
		return runScenario(*scenIn, *scenOut, c, stdout)
	}

	// Synthetic-seed runs flow through the shared job-spec parser, so the CLI
	// validates parameters exactly like csbd admission control and can report
	// the content address its outputs would have in the daemon's cache.
	var jobSpec *serve.Spec
	if *seedGraph == "" {
		spec := serve.Spec{
			Generator: *gen,
			Hosts:     *hosts,
			Sessions:  *sessions,
			Seed:      *rngSeed,
			Fraction:  *fraction,
			Edges:     *edges,
			Format:    serve.FormatTSV,
		}
		if err := spec.Normalize(); err != nil {
			return err
		}
		jobSpec = &spec
	}

	var seed *core.Seed
	if *seedGraph != "" {
		f, err := os.Open(*seedGraph)
		if err != nil {
			return err
		}
		g, err := graph.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		if seed, err = core.Analyze(g); err != nil {
			return err
		}
	} else if seed, err = core.SyntheticSeed(*hosts, *sessions, *rngSeed); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "seed: %d vertices, %d edges\n", seed.Graph.NumVertices(), seed.Graph.NumEdges())

	generator, err := core.NewGenerator(*gen, *fraction, *rngSeed, c)
	if err != nil {
		return err
	}

	start := time.Now()
	var fit *kronfit.Result
	if pgsk, ok := generator.(*core.PGSK); ok && *stageTab {
		// Generate would run the same fit and drop its diagnostics, which
		// -stages reports. Without -stages, Generate fits while it draws
		// the edge properties, as csbd's builds do.
		if fit, err = pgsk.FitResult(seed); err != nil {
			return err
		}
		pgsk.Initiator = &fit.Initiator
	}
	g, err := generator.Generate(seed, *edges)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "%s generated %d vertices, %d edges in %v (%.0f edges/s)\n",
		generator.Name(), g.NumVertices(), g.NumEdges(), elapsed.Round(time.Millisecond),
		float64(g.NumEdges())/elapsed.Seconds())
	m := c.Metrics()
	fmt.Fprintf(stdout, "virtual cluster: makespan %v, total work %v, peak %d MiB/node\n",
		m.Makespan.Round(time.Millisecond), m.TotalWork.Round(time.Millisecond),
		m.PeakBytesPerNode>>20)
	if m.TaskFailures > 0 {
		fmt.Fprintf(stdout, "fault tolerance: %d failed attempts, %d retries\n",
			m.TaskFailures, m.TaskRetries)
	}

	if *veracity {
		dv, err := stats.VeracityScoreInt(seed.Graph.Degrees(), g.Degrees())
		if err != nil {
			return err
		}
		pv, err := pagerank.Veracity(seed.Graph, g)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "veracity: degree %.3e, pagerank %.3e (lower is better)\n", dv, pv)
	}

	if *out != "" {
		if err := writeTo(*out, g.Write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote graph to %s\n", *out)
		if jobSpec != nil {
			s := *jobSpec
			s.Format = serve.FormatCSBG
			fmt.Fprintf(stdout, "artifact csbg: %s\n", s.ID())
		}
	}
	if *edgeList != "" {
		if err := writeTo(*edgeList, func(w io.Writer) error {
			return serve.EncodeArtifact(w, g, serve.FormatTSV)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote edge list to %s\n", *edgeList)
		if jobSpec != nil {
			s := *jobSpec
			s.Format = serve.FormatTSV
			fmt.Fprintf(stdout, "artifact tsv: %s\n", s.ID())
		}
	}

	if tracer != nil {
		if *traceOut != "" {
			if err := writeTo(*traceOut, tracer.WriteChromeTrace); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d stage spans to %s\n", len(tracer.Spans()), *traceOut)
		}
		if *stageTab {
			fmt.Fprintln(stdout, "# Stage table")
			if err := tracer.WriteStageTable(stdout); err != nil {
				return err
			}
			if fit != nil {
				fmt.Fprintf(stdout, "kronfit: k=%d, %d simple edges, %d swap proposals (%d kept), %d term evaluations, %d log calls\n",
					fit.K, fit.SimpleEdges, fit.Swaps, fit.Accepted, fit.TermEvals, fit.LogCalls)
			}
		}
	}
	if *memProf != "" {
		runtime.GC()
		if err := writeTo(*memProf, func(w io.Writer) error {
			return pprof.WriteHeapProfile(w)
		}); err != nil {
			return err
		}
	}
	return nil
}

// runScenario compiles a scenario spec into its labeled artifact, printing
// the same content address a csbd scenario job would cache it under.
func runScenario(specPath, outPath string, c *cluster.Cluster, stdout io.Writer) error {
	if outPath == "" {
		return fmt.Errorf("-scenario requires -scenario-out")
	}
	f, err := os.Open(specPath)
	if err != nil {
		return err
	}
	sp, err := scenario.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	start := time.Now()
	sc, err := scenario.Compile(sp, c)
	if err != nil {
		return err
	}
	attackFlows := 0
	for _, a := range sc.FlowAttack {
		if a >= 0 {
			attackFlows++
		}
	}
	fmt.Fprintf(stdout, "scenario: %d flows (%d background, %d attack), %d labels in %v\n",
		len(sc.Flows), len(sc.Flows)-attackFlows, attackFlows, len(sc.Labels),
		time.Since(start).Round(time.Millisecond))
	if err := writeTo(outPath, func(w io.Writer) error {
		return scenario.WriteLabeled(w, sc)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote labeled artifact to %s\n", outPath)
	// The daemon folds the scenario address into a job spec; print the same
	// identity so CLI outputs and csbd cache entries line up.
	job := serve.Spec{Scenario: sp}
	if err := job.Normalize(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "artifact csbf: %s\n", job.ID())
	return nil
}

func writeTo(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
