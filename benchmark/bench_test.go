package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"csb/internal/ids"
)

// tinySizes runs the benchmark's code in a fraction of a second per
// operation. The cache budget shrinks with the artifacts so both tiers still
// serve hits.
var tinySizes = sizes{
	GenEdges: 5000, EdgeSlack: 30, ServeEdges: 5000, ReplayEdges: 5000,
	ScanPorts: 1500, FloodFlows: 2500, DDoSSources: 80, DDoSFlowsPerSource: 3,
	CacheBytes: 1 << 20, MinOps: 3, Warmup: 1, SetupReps: 1, ProbeReps: 2,
}

func runTiny(t *testing.T, name string, trace int, seconds float64, tamper func(workload)) *result {
	t.Helper()
	w, err := newWorkload(name, tinySizes, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if tamper != nil {
		tamper(w)
	}
	res, err := runWorkload(context.Background(), w, tinySizes, 7, seconds, trace)
	if err != nil {
		t.Fatalf("%s trace=%d: %v", name, trace, err)
	}
	return res
}

// TestEveryMetricEmitted runs every workload untraced and traced: each must
// pass its own checks, report every end-to-end metric, and between them the
// traced runs must report every per-layer metric, all finite. runWorkload
// itself fails a traced run whose layer rows do not sum to 100 ± 10%, whose
// decomposed build differs from BuildArtifact's bytes, or which leaks a
// goroutine, a listener or a connection.
func TestEveryMetricEmitted(t *testing.T) {
	layerSeen := make(map[string]bool)
	for _, name := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			res := runTiny(t, name, trace, 0.05, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < tinySizes.MinOps {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d %v", name, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			for metricName, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.N < 1 || m.Unit == "" {
					t.Errorf("%s trace=%d: %s = %+v", name, trace, metricName, m)
				}
				layerSeen[metricName] = true
			}
			if trace == 0 {
				for _, d := range endToEnd {
					if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %+v, want a positive value", name, d.Name, m)
					}
				}
				continue
			}
			if sum := res.Metrics["trace.layer_sum_ratio"].Value; sum < 0.9 || sum > 1.1 {
				t.Errorf("%s: layer rows sum to %.3f of wall time", name, sum)
			}
			if len(res.LayerTable) < 3 {
				t.Errorf("%s: layer table has %d rows", name, len(res.LayerTable))
			}
			// The contract line carries every per-layer name, even at 0.
			var sb strings.Builder
			if err := report(&sb, t.TempDir(), res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
			var line contractLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: contract line: %v", name, err)
			}
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("%s: contract line has %d metrics, want %d", name, len(line.Metrics), len(perLayer))
			}
		}
	}
	for _, d := range perLayer {
		if !layerSeen[d.Name] {
			t.Errorf("no workload reports per-layer metric %s", d.Name)
		}
	}
}

// TestPinnedShapeDigests: under the pinned engine shape an artifact's bytes
// do not depend on GOMAXPROCS, and the decomposed build is BuildArtifact.
func TestPinnedShapeDigests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	for _, name := range []string{wlGenPGPBA, wlGenPGSK} {
		spec := newGenWorkload(name, tinySizes, 7).spec(0)
		var sums [][sha256.Size]byte
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			data, err := build(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, sha256.Sum256(data))
		}
		if sums[0] != sums[1] {
			t.Errorf("%s: bytes differ between GOMAXPROCS 1 and 2", name)
		}
		data, _, err := buildDecomposed(ctx, spec, newRecorder(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if sha256.Sum256(data) != sums[0] {
			t.Errorf("%s: decomposed build differs from BuildArtifact", name)
		}
	}
}

// TestNegativeCases: a flipped artifact byte, a dropped flow and a wrong
// alert must each show up as failed operations.
func TestNegativeCases(t *testing.T) {
	cases := []struct {
		name, workload string
		tamper         func(workload)
	}{
		{"flipped byte in a generated artifact", wlGenPGPBA, func(w workload) {
			w.(*genWorkload).tamper = func(data []byte) { data[0] ^= 0x01 }
		}},
		{"flipped byte in a served artifact", wlServeMix, func(w workload) {
			w.(*serveWorkload).tamper = func(d *digest) { d.crc ^= 0x01 }
		}},
		{"dropped flow", wlReplayDetect, func(w workload) {
			w.(*replayWorkload).tamper = func(s *session) { s.subs[1].stats.Received-- }
		}},
		{"wrong alert", wlReplayDetect, func(w workload) {
			w.(*replayWorkload).tamper = func(s *session) {
				s.subs[0].alerts = append([]ids.Alert(nil), s.subs[0].alerts...)
				s.subs[0].alerts[0].IP++
			}
		}},
	}
	for _, tc := range cases {
		res := runTiny(t, tc.workload, 0, 0.05, tc.tamper)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d of %d, want failures", tc.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	cases := []struct {
		name           string
		parent, change []float64
		better         string
		want           string
	}{
		{"same", steady, steady, "lower", verdictOK},
		{"slower beyond the bound", steady, []float64{120, 121, 119, 120, 122, 118}, "lower", verdictRegression},
		{"slower within the bound", steady, []float64{105, 106, 104, 105, 107, 103}, "lower", verdictOK},
		{"every run faster", steady, []float64{80, 81, 79, 80, 82, 78}, "lower", verdictBetter},
		{"throughput fell", steady, []float64{80, 81, 79, 80, 82, 78}, "higher", verdictRegression},
		{"too noisy to tell", []float64{100, 140, 70, 100, 130, 75}, []float64{120, 160, 80, 118, 150, 85}, "lower", verdictUnresolved},
		{"noisy but every run faster", []float64{100, 140, 90, 100, 130, 95}, []float64{50, 70, 45, 50, 65, 47}, "lower", verdictBetter},
	}
	for _, tc := range cases {
		if got := judge(tc.parent, tc.change, tc.better, 0.10); got.Verdict != tc.want {
			t.Errorf("%s: verdict %s (worse %.3f spread %.3f), want %s", tc.name, got.Verdict, got.Worse, got.Spread, tc.want)
		}
	}
}

// TestCompareFiles drives -compare end to end on two synthetic result files.
func TestCompareFiles(t *testing.T) {
	write := func(name string, scale float64) string {
		var rf resultFile
		for _, wl := range workloadNames {
			for i := 0; i < 4; i++ {
				ms := metricSet{}
				for _, d := range endToEnd {
					v := 100 + float64(i)
					if d.Name == "op_p50_ms" && wl == wlServeMix {
						v *= scale
					}
					ms.set(d.Name, v, 1)
				}
				rf.Runs = append(rf.Runs, result{Workload: wl, Correct: true, Attempted: 1, Metrics: ms})
			}
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSONFile(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join("..", "BENCHMARK.json")
	parent, same, slower := write("parent.json", 1), write("same.json", 1), write("slower.json", 1.5)
	var sb strings.Builder
	if regressed, err := compareFiles(&sb, bench, parent, same); err != nil || regressed {
		t.Errorf("A/A: regressed=%v err=%v\n%s", regressed, err, sb.String())
	}
	sb.Reset()
	regressed, err := compareFiles(&sb, bench, parent, slower)
	if err != nil || !regressed {
		t.Errorf("slower change: regressed=%v err=%v", regressed, err)
	}
	if !strings.Contains(sb.String(), verdictRegression) {
		t.Errorf("table does not name the regression:\n%s", sb.String())
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the code's
// catalog in step: same workloads, same metrics, units, directions, bounds.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the code's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(bf.Workloads), len(workloadNames))
	}
	for i, wl := range bf.Workloads {
		if wl.Name != workloadNames[i] || wl.Why == "" || len(wl.Why) > 200 {
			t.Errorf("workload %d: %+v, want %s with a one-line why", i, wl, workloadNames[i])
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound %v, want %v (bounded=%v)", kind, d.Name, g.Bound, d.Bound, bounded)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}
