package eval_test

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"csb/internal/eval"
)

// committedSpecs are the grid specs whose runs/<stamp>/ directories are
// committed and back the Figure 6 and 7 tables of EXPERIMENTS.md.
var committedSpecs = []string{"experiments.json", "experiments-large.json"}

// repoRoot is where the specs, runs/ and EXPERIMENTS.md live.
const repoRoot = "../.."

// groupKey names one table cell: a generator configuration at a size.
type groupKey struct {
	gen  eval.GeneratorSpec
	size int64
}

// groupMeans are the per-(generator, size) means of the two veracity
// columns, as analysis.md and EXPERIMENTS.md report them.
type groupMeans struct {
	degree, pageRank float64
}

// readCommittedRun checks that the spec at path names a committed run whose
// results.csv has eval.Header() and one row per cell in Cells() order, and
// returns the veracity means of each group.
func readCommittedRun(t *testing.T, path string) map[groupKey]groupMeans {
	t.Helper()
	sp := loadSpec(t, filepath.Join(repoRoot, path))
	csvPath := filepath.Join(repoRoot, "runs", sp.ID()[:12], "results.csv")
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatalf("%s: its run is not committed: %v", path, err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", csvPath, err)
	}
	if !slices.Equal(records[0], eval.Header()) {
		t.Fatalf("%s: header is not eval.Header()", csvPath)
	}
	col := map[string]int{}
	for i, name := range records[0] {
		col[name] = i
	}
	cells := sp.Cells()
	if len(records)-1 != len(cells) {
		t.Fatalf("%s: %d rows, spec has %d cells", csvPath, len(records)-1, len(cells))
	}
	sums := map[groupKey]groupMeans{}
	counts := map[groupKey]int{}
	for i, c := range cells {
		rec := records[i+1]
		want := []string{
			c.Generator.Name, strconv.FormatFloat(c.Generator.Fraction, 'g', -1, 64),
			strconv.FormatInt(c.Size, 10), strconv.FormatUint(c.BaseSeed, 10),
			strconv.Itoa(c.Repeat), strconv.FormatUint(c.GenSeed(), 10),
		}
		if !slices.Equal(rec[:len(want)], want) {
			t.Fatalf("%s: row %d is %v, cell %d is %v", csvPath, i+1, rec[:len(want)], i, want)
		}
		k := groupKey{c.Generator, c.Size}
		m := sums[k]
		m.degree += parseFloat(t, rec[col["degree_veracity"]])
		m.pageRank += parseFloat(t, rec[col["pagerank_veracity"]])
		sums[k] = m
		counts[k]++
	}
	for k, m := range sums {
		n := float64(counts[k])
		sums[k] = groupMeans{m.degree / n, m.pageRank / n}
	}
	return sums
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// docTable returns the rows of the first Markdown table under the
// EXPERIMENTS.md heading that starts with heading: header cells, then one
// slice of cells per body row.
func docTable(t *testing.T, heading string) [][]string {
	t.Helper()
	f, err := os.Open(filepath.Join(repoRoot, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows [][]string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			if in {
				break
			}
			in = strings.HasPrefix(line, heading)
			continue
		}
		if !in {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.TrimSpace(c))
		}
		rows = append(rows, cells)
	}
	if len(rows) < 2 {
		t.Fatalf("EXPERIMENTS.md: no table under %q", heading)
	}
	return rows
}

// docSize parses a size column header: "50k edges", "200k", "3.2M".
func docSize(t *testing.T, h string) int64 {
	t.Helper()
	h = strings.TrimSuffix(h, " edges")
	mult := 1.0
	switch {
	case strings.HasSuffix(h, "k"):
		mult, h = 1e3, strings.TrimSuffix(h, "k")
	case strings.HasSuffix(h, "M"):
		mult, h = 1e6, strings.TrimSuffix(h, "M")
	}
	return int64(math.Round(parseFloat(t, h) * mult))
}

// docGenerator parses a row label: "PGSK" or "PGPBA f=0.1".
func docGenerator(t *testing.T, label string) eval.GeneratorSpec {
	t.Helper()
	if label == "PGSK" {
		return eval.GeneratorSpec{Name: eval.GenPGSK}
	}
	frac, ok := strings.CutPrefix(label, "PGPBA f=")
	if !ok {
		t.Fatalf("EXPERIMENTS.md: unknown generator label %q", label)
	}
	return eval.GeneratorSpec{Name: eval.GenPGPBA, Fraction: parseFloat(t, frac)}
}

// sameToDigits reports whether mean, rounded to the significant digits doc
// is written with, is doc.
func sameToDigits(t *testing.T, doc string, mean float64) bool {
	t.Helper()
	mant, _, _ := strings.Cut(doc, "e")
	digits := strings.TrimLeft(strings.ReplaceAll(mant, ".", ""), "0")
	return parseFloat(t, strconv.FormatFloat(mean, 'e', len(digits)-1, 64)) == parseFloat(t, doc)
}

// TestCommittedRunsBackFigures6And7: each committed grid spec names its
// runs/<stamp>/results.csv, whose rows are the spec's cells in order; every
// number of the Figure 6 and 7 tables in EXPERIMENTS.md is a group mean
// from those CSVs, and the tables cover every group; and the two shape
// claims hold on the means — both veracity scores fall with size for every
// generator, and every PGPBA fraction beats PGSK at every size.
func TestCommittedRunsBackFigures6And7(t *testing.T) {
	means := map[groupKey]groupMeans{}
	for _, path := range committedSpecs {
		for k, m := range readCommittedRun(t, path) {
			if _, dup := means[k]; dup {
				t.Fatalf("%s repeats the group %s at %d", path, k.gen.Display(), k.size)
			}
			means[k] = m
		}
	}

	for _, fig := range []struct {
		heading string
		metric  func(groupMeans) float64
	}{
		{"## Figure 6", func(m groupMeans) float64 { return m.degree }},
		{"## Figure 7", func(m groupMeans) float64 { return m.pageRank }},
	} {
		rows := docTable(t, fig.heading)
		var sizes []int64
		for _, h := range rows[0][1:] {
			sizes = append(sizes, docSize(t, h))
		}
		cited := 0
		for _, row := range rows[1:] {
			gen := docGenerator(t, row[0])
			for j, cell := range row[1:] {
				if cell == "—" {
					continue
				}
				k := groupKey{gen, sizes[j]}
				m, ok := means[k]
				if !ok {
					t.Errorf("%s: %s at %d has no committed run", fig.heading, row[0], sizes[j])
					continue
				}
				if got := fig.metric(m); !sameToDigits(t, cell, got) {
					t.Errorf("%s: %s at %d reads %s, committed mean is %.6g", fig.heading, row[0], sizes[j], cell, got)
				}
				cited++
			}
		}
		if cited != len(means) {
			t.Errorf("%s cites %d cells, the committed runs have %d groups", fig.heading, cited, len(means))
		}
	}

	bySize := map[eval.GeneratorSpec][]int64{}
	for k := range means {
		bySize[k.gen] = append(bySize[k.gen], k.size)
	}
	pgsk := eval.GeneratorSpec{Name: eval.GenPGSK}
	for gen, sizes := range bySize {
		slices.Sort(sizes)
		for i, size := range sizes {
			m := means[groupKey{gen, size}]
			name := fmt.Sprintf("%s at %d", gen.Display(), size)
			if i > 0 {
				prev := means[groupKey{gen, sizes[i-1]}]
				if m.degree >= prev.degree || m.pageRank >= prev.pageRank {
					t.Errorf("%s: veracity %+v does not fall from %+v at %d", name, m, prev, sizes[i-1])
				}
			}
			if gen.Name != eval.GenPGPBA {
				continue
			}
			base, ok := means[groupKey{pgsk, size}]
			if !ok {
				t.Errorf("%s: no PGSK group at the same size", name)
			} else if m.degree >= base.degree || m.pageRank >= base.pageRank {
				t.Errorf("%s: veracity %+v does not beat PGSK's %+v", name, m, base)
			}
		}
	}
}
