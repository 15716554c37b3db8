package eval

import (
	"fmt"
	"strings"
)

// Analysis renders analysis.md: grouped summaries of the grid's rows in the
// shape of the paper's evaluation — a Figure 6 analogue (degree veracity vs
// size per generator), a Figure 7 analogue (PageRank veracity), the
// extended metric suite, and the utility table. Every value is the mean
// over the group's seeds × repeats. The output is a pure function of
// (spec, specPath, rows): no clock, no environment — analysis.md is as
// reproducible as results.csv.
func Analysis(sp *GridSpec, specPath string, rows []Row) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# Evaluation run: %s\n\n", sp.Name)
	fmt.Fprintf(&b, "Spec: `%s` (grid ID `%s`).\n", specPath, sp.ID()[:12])
	fmt.Fprintf(&b, "Reproduce with:\n\n```sh\ncsbeval -spec %s\n```\n\n", specPath)
	fmt.Fprintf(&b,
		"Grid: %d generators × %d sizes × %d seeds × %d repeats = %d cells.\n"+
			"Seed trace: %d hosts, %d sessions, drawn at each cell's generation seed (gen_seed, the seed of its csbd spec). Held-out scenario: %d hosts, %d sessions, seed %d.\n"+
			"Each table cell is the mean over the group's %d seed×repeat runs.\n\n",
		len(sp.Generators), len(sp.Sizes), len(sp.Seeds), sp.Repeats, len(rows),
		sp.SeedHosts, sp.SeedSessions,
		sp.Utility.HeldOutHosts, sp.Utility.HeldOutSessions, sp.Utility.HeldOutSeed,
		len(sp.Seeds)*sp.Repeats)

	groupMean := func(gen GeneratorSpec, size int64, metric func(*Row) float64) float64 {
		var sum float64
		var n int
		for i := range rows {
			r := &rows[i]
			if r.Cell.Generator == gen && r.Cell.Size == size {
				sum += metric(r)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}

	sizeTable := func(title string, metric func(*Row) float64) {
		fmt.Fprintf(&b, "## %s\n\n", title)
		b.WriteString("| generator |")
		for _, s := range sp.Sizes {
			fmt.Fprintf(&b, " %d |", s)
		}
		b.WriteString("\n|---|")
		for range sp.Sizes {
			b.WriteString("---|")
		}
		b.WriteString("\n")
		for _, g := range sp.Generators {
			fmt.Fprintf(&b, "| %s |", g.Display())
			for _, s := range sp.Sizes {
				fmt.Fprintf(&b, " %.4g |", groupMean(g, s, metric))
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}

	sizeTable("Degree veracity vs size (Figure 6 analogue, lower = more faithful)",
		func(r *Row) float64 { return r.Report.DegreeVeracity })
	sizeTable("PageRank veracity vs size (Figure 7 analogue, lower = more faithful)",
		func(r *Row) float64 { return r.Report.PageRankVeracity })

	// The extended metric suite at the largest size: one row per generator,
	// one column per metric family.
	largest := sp.Sizes[len(sp.Sizes)-1]
	fmt.Fprintf(&b, "## Metric suite at %d edges\n\n", largest)
	b.WriteString("| generator | js_degree | emd_degree | ks_degree | clustering_gap | assort_gap | pagerank_corr |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, g := range sp.Generators {
		fmt.Fprintf(&b, "| %s | %.4g | %.4g | %.4g | %.4g | %.4g | %.4g |\n",
			g.Display(),
			groupMean(g, largest, func(r *Row) float64 { return r.Report.Degree.JS }),
			groupMean(g, largest, func(r *Row) float64 { return r.Report.Degree.EMD }),
			groupMean(g, largest, func(r *Row) float64 { return r.Report.Degree.KS }),
			groupMean(g, largest, func(r *Row) float64 { return r.Report.ClusteringGap }),
			groupMean(g, largest, func(r *Row) float64 { return r.Report.AssortativityGap }),
			groupMean(g, largest, func(r *Row) float64 { return r.Report.PageRankCorr }))
	}
	b.WriteString("\n")

	// Utility: the fidelity–utility trade-off table, per generator × size.
	b.WriteString("## Utility (detector tuned on synthetic, scored on held-out)\n\n")
	b.WriteString("| generator | size | base_f1 | synthetic_f1 | native_f1 | utility_gap |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, g := range sp.Generators {
		for _, s := range sp.Sizes {
			fmt.Fprintf(&b, "| %s | %d | %.4g | %.4g | %.4g | %.4g |\n",
				g.Display(), s,
				groupMean(g, s, func(r *Row) float64 { return r.Utility.BaseF1 }),
				groupMean(g, s, func(r *Row) float64 { return r.Utility.SyntheticF1 }),
				groupMean(g, s, func(r *Row) float64 { return r.Utility.NativeF1 }),
				groupMean(g, s, func(r *Row) float64 { return r.Utility.UtilityGap }))
		}
	}
	b.WriteString("\n")
	b.WriteString("Determinism contract: results.csv is a pure function of the spec — " +
		"same spec ⇒ byte-identical CSV at any parallelism, locally or sharded across dist workers. " +
		"Logs carry wall-clock and placement and are outside that contract.\n")
	return []byte(b.String())
}
