package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: the bound and
// direction of every end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare: the medians of both sides, how much
// worse the change is as a share of the parent's median (negative = better),
// and the wider of the two sides' interquartile spreads.
type comparison struct {
	Workload, Metric string
	Parent, Change   float64
	NParent, NChange int
	Worse, Spread    float64
	Bound            float64
	Verdict          string
}

// spread is the interquartile range as a share of the median — the same
// spread the builder's contract measures. Fewer than four runs have no
// quartiles to speak of and read as 0.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

// judge applies the decision rule: a median worse than the bound is a
// regression; but where either side's own spread exceeds the bound the pair
// is unresolved, unless every run of the change beats every run of the
// parent.
func judge(parent, change []float64, better string, bound float64) comparison {
	c := comparison{
		Parent: median(parent), Change: median(change), NParent: len(parent), NChange: len(change),
		Spread: max(spread(parent), spread(change)), Bound: bound,
	}
	sign := 1.0 // lower is better: growing is worse
	if better == "higher" {
		sign = -1
	}
	c.Worse = sign * (c.Change - c.Parent) / c.Parent
	allBetter := true
	for _, p := range parent {
		for _, ch := range change {
			if sign*(ch-p) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case c.Spread > bound && allBetter:
		c.Verdict = verdictBetter
	case c.Spread > bound:
		c.Verdict = verdictUnresolved
	case c.Worse > bound:
		c.Verdict = verdictRegression
	case allBetter:
		c.Verdict = verdictBetter
	default:
		c.Verdict = verdictOK
	}
	return c
}

// untracedValues gathers a result file's end-to-end values by workload and
// metric. A run that failed its checks has no comparable numbers and is an
// error.
func untracedValues(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	vals := make(map[string]map[string][]float64)
	for _, r := range rf.Runs {
		if r.Trace != 0 {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: %s run (seed %d) failed its correctness checks", path, r.Workload, r.Seed)
		}
		if r.Stamp.Degraded {
			return nil, fmt.Errorf("%s: %s run (seed %d) is degraded (%d CPU)", path, r.Workload, r.Seed, r.Stamp.NumCPU)
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
		}
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs", path)
	}
	return vals, nil
}

// compareFiles prints the paired table of parent against change and reports
// whether any pair regressed.
func compareFiles(w io.Writer, benchPath, parentPath, changePath string) (regressed bool, err error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := untracedValues(parentPath)
	if err != nil {
		return false, err
	}
	change, err := untracedValues(changePath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tworse by\tbound\tspread\tverdict")
	for _, wl := range workloadNames {
		for _, d := range bf.EndToEnd {
			p, c := parent[wl][d.Name], change[wl][d.Name]
			if len(p) == 0 || len(c) == 0 {
				return false, fmt.Errorf("%s %s: missing on one side (%d parent runs, %d change runs)", wl, d.Name, len(p), len(c))
			}
			cmp := judge(p, c, d.Better, d.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s (n=%d)\t%.4f %s (n=%d)\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				wl, d.Name, cmp.Parent, d.Unit, cmp.NParent, cmp.Change, d.Unit, cmp.NChange,
				100*cmp.Worse, 100*cmp.Bound, 100*cmp.Spread, cmp.Verdict)
			regressed = regressed || cmp.Verdict == verdictRegression
		}
	}
	return regressed, tw.Flush()
}
