package main

import (
	"fmt"
	"runtime"

	"csb/internal/cluster"
	"csb/internal/core"
	"csb/internal/graph"
)

// timingRepeats is how many times each virtual-time measurement is run;
// the minimum makespan is kept. Generation is deterministic per seed, so
// repeats re-execute identical work and the minimum strips scheduler and GC
// noise from the per-task timings.
const timingRepeats = 5

// measureMin runs build+generate timingRepeats times and returns the
// generated graph together with the minimum-makespan metrics. A GC cycle
// runs before each repeat so collection debt from a previous configuration
// cannot leak into this one's timings.
func measureMin(build func() *cluster.Cluster, generate func(c *cluster.Cluster) (*graph.Graph, error)) (*graph.Graph, cluster.Metrics, error) {
	var best cluster.Metrics
	var out *graph.Graph
	for r := 0; r < timingRepeats; r++ {
		runtime.GC()
		c := build()
		g, err := generate(c)
		if err != nil {
			return nil, cluster.Metrics{}, err
		}
		m := c.Metrics()
		if out == nil || m.Makespan < best.Makespan {
			best = m
			out = g
		}
	}
	return out, best, nil
}

// pgskWithFit builds a PGSK generator with its KronFit already run, so
// experiments sweeping many sizes or clusters pay for the fit once.
func pgskWithFit(seed *core.Seed, c *cluster.Cluster, rngSeed uint64) (*core.PGSK, error) {
	p := &core.PGSK{Seed: rngSeed, Cluster: c}
	init, err := p.FitSeed(seed)
	if err != nil {
		return nil, err
	}
	p.Initiator = &init
	return p, nil
}

// corePoint is one Figure 8 measurement: virtual-time throughput of a
// generator on a single node at a core count.
type corePoint struct {
	generator  string
	cores      int
	seconds    float64
	throughput float64 // edges per virtual second
}

// fig8Partitions fixes the workload decomposition of the Figure 8 sweep.
// The paper's throughput plateaus at 12 of 20 physical cores (a hardware
// effect); here the plateau emerges from task granularity instead — with 24
// partitions, core counts from 12 to 23 all need two task waves, so the
// curve rises to 12 cores and flattens, the Figure 8 shape.
const fig8Partitions = 24

// singleNodeThroughput measures generation throughput at each core count
// (Figure 8) on a single virtual node with a fixed 24-way workload
// decomposition. All tasks really execute (bounded by the physical cores);
// the reported time is the virtual makespan at the requested core count.
// tracer may be nil; when set it collects every run's stage spans.
func singleNodeThroughput(seed *core.Seed, edges int64, coreCounts []int, rngSeed uint64, tracer *cluster.Tracer) ([]corePoint, error) {
	var out []corePoint
	pgskBase, err := pgskWithFit(seed, nil, rngSeed)
	if err != nil {
		return nil, err
	}
	for _, cores := range coreCounts {
		build := func() *cluster.Cluster {
			return cluster.MustNew(cluster.Config{Nodes: 1, CoresPerNode: cores, DefaultPartitions: fig8Partitions, Tracer: tracer})
		}
		g, m, err := measureMin(build, func(c *cluster.Cluster) (*graph.Graph, error) {
			defer c.Scope(fmt.Sprintf("pgpba-c%d", cores))()
			gen := &core.PGPBA{Fraction: 0.5, Seed: rngSeed, Cluster: c}
			return gen.Generate(seed, edges)
		})
		if err != nil {
			return nil, err
		}
		el := m.Makespan.Seconds()
		out = append(out, corePoint{generator: "pgpba", cores: cores, seconds: el,
			throughput: float64(g.NumEdges()) / el})

		gk, mk, err := measureMin(build, func(c *cluster.Cluster) (*graph.Graph, error) {
			defer c.Scope(fmt.Sprintf("pgsk-c%d", cores))()
			p := *pgskBase
			p.Cluster = c
			return p.Generate(seed, edges)
		})
		if err != nil {
			return nil, err
		}
		el = mk.Makespan.Seconds()
		out = append(out, corePoint{generator: "pgsk", cores: cores, seconds: el,
			throughput: float64(gk.NumEdges()) / el})
	}
	return out, nil
}

// sizePoint is one row of the Figure 9-11 sweeps on a fixed virtual cluster.
type sizePoint struct {
	generator     string
	edges         int64   // actual edges generated
	seconds       float64 // virtual makespan (Figure 9)
	throughput    float64 // edges per virtual second (Figure 10)
	propsOverhead float64 // fractional slowdown due to property synthesis (Figure 10)
	bytesPerNode  int64   // peak per-node memory (Figure 11)
}

// sizeSweep generates graphs of each target size with both generators on the
// virtual cluster cfg describes (the paper uses 60 nodes with
// total-executor-cores = 12x nodes and partitions = 2x executor cores),
// recording virtual makespan, throughput, property-synthesis overhead and
// peak memory. PGPBA runs at fraction 2 to match PGSK's doubling, the
// Figure 9 configuration.
func sizeSweep(seed *core.Seed, sizes []int64, cfg cluster.Config, rngSeed uint64) ([]sizePoint, error) {
	var out []sizePoint
	build := func() *cluster.Cluster { return cluster.MustNew(cfg) }
	run := func(name string, makeGen func(c *cluster.Cluster, skipProps bool) (core.Generator, error), size int64) error {
		// Full run.
		g, m, err := measureMin(build, func(c *cluster.Cluster) (*graph.Graph, error) {
			defer c.Scope(fmt.Sprintf("%s-e%d", name, size))()
			gen, err := makeGen(c, false)
			if err != nil {
				return nil, err
			}
			return gen.Generate(seed, size)
		})
		if err != nil {
			return err
		}
		full := m.Makespan.Seconds()

		// Structural-only run for the property overhead.
		_, m2, err := measureMin(build, func(c *cluster.Cluster) (*graph.Graph, error) {
			defer c.Scope(fmt.Sprintf("%s-e%d-noprops", name, size))()
			gen, err := makeGen(c, true)
			if err != nil {
				return nil, err
			}
			return gen.Generate(seed, size)
		})
		if err != nil {
			return err
		}
		bare := m2.Makespan.Seconds()

		overhead := 0.0
		if bare > 0 {
			overhead = (full - bare) / bare
		}
		out = append(out, sizePoint{
			generator:     name,
			edges:         g.NumEdges(),
			seconds:       full,
			throughput:    float64(g.NumEdges()) / full,
			propsOverhead: overhead,
			bytesPerNode:  m.PeakBytesPerNode,
		})
		return nil
	}
	for _, size := range sizes {
		err := run("pgpba", func(c *cluster.Cluster, skip bool) (core.Generator, error) {
			return &core.PGPBA{Fraction: 2, Seed: rngSeed, Cluster: c, SkipProperties: skip}, nil
		}, size)
		if err != nil {
			return nil, fmt.Errorf("sizesweep PGPBA %d: %w", size, err)
		}
		err = run("pgsk", func(c *cluster.Cluster, skip bool) (core.Generator, error) {
			p, err := pgskWithFit(seed, c, rngSeed)
			if err != nil {
				return nil, err
			}
			p.SkipProperties = skip
			return p, nil
		}, size)
		if err != nil {
			return nil, fmt.Errorf("sizesweep PGSK %d: %w", size, err)
		}
	}
	return out, nil
}

// speedupPoint is one Figure 12 measurement. speedup is computed from the
// makespan-to-total-work ratio (parallel efficiency) rather than raw
// makespans: the executed work is identical across node counts, so the
// ratio cancels any uniform slowdown of the measuring host during one
// configuration's window.
type speedupPoint struct {
	generator string
	nodes     int
	seconds   float64 // virtual makespan
	speedup   float64 // relative to the smallest node count
}

// strongScaling generates a fixed-size graph on virtual clusters of each
// node count and reports the speedup relative to the smallest count. Each
// configuration uses the paper's tuning — partitions = 2x its own executor
// cores — exactly as the Spark deployment would. tracer may be nil; when
// set it collects every run's stage spans.
func strongScaling(seed *core.Seed, edges int64, nodeCounts []int, coresPerNode int, rngSeed uint64, tracer *cluster.Tracer) ([]speedupPoint, error) {
	if len(nodeCounts) == 0 {
		return nil, fmt.Errorf("strongscaling: no node counts")
	}
	var out []speedupPoint
	measure := func(name string, makeGen func(c *cluster.Cluster) (core.Generator, error)) error {
		base := -1.0
		for _, nodes := range nodeCounts {
			build := func() *cluster.Cluster {
				return cluster.MustNew(cluster.Config{
					Nodes: nodes, CoresPerNode: coresPerNode,
					DefaultPartitions: 2 * nodes * coresPerNode,
					Tracer:            tracer,
				})
			}
			_, m, err := measureMin(build, func(c *cluster.Cluster) (*graph.Graph, error) {
				defer c.Scope(fmt.Sprintf("%s-n%d", name, nodes))()
				gen, err := makeGen(c)
				if err != nil {
					return nil, err
				}
				return gen.Generate(seed, edges)
			})
			if err != nil {
				return err
			}
			sec := m.Makespan.Seconds()
			ratio := sec / m.TotalWork.Seconds()
			if base < 0 {
				base = ratio
			}
			out = append(out, speedupPoint{generator: name, nodes: nodes,
				seconds: sec, speedup: base / ratio})
		}
		return nil
	}
	if err := measure("pgpba", func(c *cluster.Cluster) (core.Generator, error) {
		return &core.PGPBA{Fraction: 2, Seed: rngSeed, Cluster: c}, nil
	}); err != nil {
		return nil, err
	}
	if err := measure("pgsk", func(c *cluster.Cluster) (core.Generator, error) {
		return pgskWithFit(seed, c, rngSeed)
	}); err != nil {
		return nil, err
	}
	return out, nil
}
