package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csb/internal/core"
	"csb/internal/graph"
	"csb/internal/serve"
)

func TestRunPGPBAWithSyntheticSeed(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "syn.csbg")
	var out bytes.Buffer
	err := run([]string{
		"-hosts", "20", "-sessions", "200", "-gen", "pgpba",
		"-edges", "5000", "-fraction", "0.5", "-seed", "3",
		"-out", outPath, "-veracity",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "PGPBA generated") || !strings.Contains(s, "veracity:") {
		t.Fatalf("output: %q", s)
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 5000 {
		t.Fatalf("generated %d edges", g.NumEdges())
	}
}

func TestRunPGSKFromSeedFile(t *testing.T) {
	dir := t.TempDir()
	seedPath := filepath.Join(dir, "seed.csbg")
	// Build a seed graph file first.
	seed, err := core.SyntheticSeed(20, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(seedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Graph.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	product, fitted := filepath.Join(dir, "product.csbg"), filepath.Join(dir, "fitted.csbg")
	err = run([]string{"-seed-graph", seedPath, "-gen", "pgsk", "-edges", "3000", "-seed", "5", "-out", product}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "PGSK generated") {
		t.Fatalf("output: %q", out.String())
	}
	if strings.Contains(out.String(), "kronfit:") {
		t.Fatalf("work counters printed without -stages: %q", out.String())
	}

	// -stages appends the fit's work counters to the stage table, and they
	// repeat exactly. Fitting first, for the counters, writes the bytes
	// Generate's own fit does.
	var first, second bytes.Buffer
	for _, w := range []*bytes.Buffer{&first, &second} {
		if err := run([]string{"-seed-graph", seedPath, "-gen", "pgsk", "-edges", "3000", "-seed", "5", "-stages", "-out", fitted}, w); err != nil {
			t.Fatal(err)
		}
	}
	a, errA := os.ReadFile(product)
	b, errB := os.ReadFile(fitted)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("-stages changed the graph (read errors %v, %v)", errA, errB)
	}
	counters := func(s string) string {
		_, line, ok := strings.Cut(s, "\nkronfit: ")
		if !ok || !strings.Contains(line, "term evaluations") {
			t.Fatalf("no kronfit counter line after the stage table: %q", s)
		}
		return line
	}
	if a, b := counters(first.String()), counters(second.String()); a != b {
		t.Fatalf("work counters differ between runs:\n%s%s", a, b)
	}
}

func TestRunOnVirtualCluster(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-hosts", "15", "-sessions", "150", "-gen", "pgpba",
		"-edges", "3000", "-fraction", "0.5", "-nodes", "4", "-cores", "2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "virtual cluster: makespan") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-gen", "nosuch"}, &out); err == nil {
		t.Error("unknown generator accepted")
	}
	if err := run([]string{"-seed-graph", "/nonexistent.csbg"}, &out); err == nil {
		t.Error("missing seed file accepted")
	}
	if err := run([]string{"-hosts", "20", "-sessions", "100", "-edges", "10"}, &out); err == nil {
		t.Error("target below seed size accepted")
	}
	if err := run([]string{"-notaflag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestArtifactBytesMatchServer is the CLI/daemon determinism cross-check:
// the artifact csbd serves for a job spec must be byte-identical to what
// csbgen writes for the same flags — on the cache-miss (first build) and the
// cache-hit (second submit) paths — and both sides must print/report the
// same content address.
func TestArtifactBytesMatchServer(t *testing.T) {
	dir := t.TempDir()
	edgePath := filepath.Join(dir, "syn.tsv")
	var out bytes.Buffer
	err := run([]string{
		"-hosts", "15", "-sessions", "150", "-gen", "pgsk",
		"-edges", "2000", "-seed", "9", "-edgelist-out", edgePath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	cliBytes, err := os.ReadFile(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	var cliID string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "artifact tsv: "); ok {
			cliID = rest
		}
	}
	if cliID == "" {
		t.Fatalf("csbgen did not print an artifact id: %q", out.String())
	}

	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := func() serve.JobStatus {
		t.Helper()
		body := `{"generator":"pgsk","hosts":15,"sessions":150,"seed":9,"edges":2000,"format":"tsv"}`
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st serve.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	fetch := func(id string) []byte {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st serve.JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			switch st.State {
			case "done":
				r, err := http.Get(ts.URL + st.ArtifactURL)
				if err != nil {
					t.Fatal(err)
				}
				data, err := io.ReadAll(r.Body)
				r.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				return data
			case "failed", "canceled":
				t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", id)
			}
			time.Sleep(10 * time.Millisecond) // paces a poll of the job's state
		}
	}

	// Cache miss: the daemon generates from scratch.
	st := submit()
	if st.CacheHit {
		t.Fatal("first submit reported a cache hit")
	}
	if st.ArtifactID != cliID {
		t.Fatalf("artifact identity disagrees: CLI %s, daemon %s", cliID, st.ArtifactID)
	}
	if got := fetch(st.ID); !bytes.Equal(got, cliBytes) {
		t.Fatalf("cache-miss artifact differs from csbgen output (%d vs %d bytes)", len(got), len(cliBytes))
	}

	// Cache hit: the same spec must come straight from the cache, unchanged.
	st = submit()
	if !st.CacheHit {
		t.Fatal("second submit missed the cache")
	}
	if got := fetch(st.ID); !bytes.Equal(got, cliBytes) {
		t.Fatal("cache-hit artifact differs from csbgen output")
	}
}

// TestSeedGraphMatchesSyntheticPath runs the two-step pipeline — csbseed
// -graph-out, then csbgen -seed-graph — and holds it to csbgen's one-step
// synthetic path at the same hosts, sessions and seed: the seed graph on
// disk carries everything a generation needs, so re-analyzing it writes the
// same bytes.
func TestSeedGraphMatchesSyntheticPath(t *testing.T) {
	dir := t.TempDir()
	seedPath := filepath.Join(dir, "seed.csbg")
	csbseed := exec.Command("go", "run", "csb/cmd/csbseed",
		"-hosts", "15", "-sessions", "150", "-seed", "7", "-graph-out", seedPath)
	if out, err := csbseed.CombinedOutput(); err != nil {
		t.Fatalf("csbseed: %v\n%s", err, out)
	}
	for _, gen := range []string{"pgpba", "pgsk"} {
		twoStep, oneStep := filepath.Join(dir, gen+"-seed-graph.csbg"), filepath.Join(dir, gen+"-synthetic.csbg")
		args := []string{"-gen", gen, "-fraction", "0.5", "-edges", "3000", "-seed", "7"}
		var out bytes.Buffer
		if err := run(append([]string{"-seed-graph", seedPath, "-out", twoStep}, args...), &out); err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-hosts", "15", "-sessions", "150", "-out", oneStep}, args...), &out); err != nil {
			t.Fatal(err)
		}
		a, errA := os.ReadFile(twoStep)
		b, errB := os.ReadFile(oneStep)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: -seed-graph wrote %d bytes that differ from the synthetic path's %d", gen, len(a), len(b))
		}
	}
}
