package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csb/internal/cluster"
	"csb/internal/pcap"
)

// tinySpec is a generation small enough for unit tests.
func tinySpec(seed uint64) Spec {
	return Spec{Generator: GenPGPBA, Hosts: 15, Sessions: 150, Seed: seed, Fraction: 0.5, Edges: 2000}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec Spec) (*http.Response, JobStatus) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, st
}

func pollDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond) // paces the poll and synchronises nothing; the state read above does
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func fetchArtifact(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("artifact fetch: %d %s", resp.StatusCode, b)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, st := postJob(t, ts, tinySpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %q", st.State)
	}
	if st.CacheHit {
		t.Fatal("cold submit reported a cache hit")
	}
	final := pollDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %q (%s)", final.State, final.Error)
	}
	if final.ArtifactURL == "" || final.ArtifactID != st.ArtifactID {
		t.Fatalf("final status missing artifact: %+v", final)
	}
	data := fetchArtifact(t, ts, st.ID)
	if !bytes.HasPrefix(data, []byte("src\tdst\t")) {
		t.Fatalf("artifact does not look like a TSV edge list: %q", data[:40])
	}
	// The same bytes are reachable by content address.
	resp2, err := http.Get(ts.URL + "/v1/artifacts/" + final.ArtifactID)
	if err != nil {
		t.Fatal(err)
	}
	byAddr, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(byAddr, data) {
		t.Fatal("content-address fetch differs from job artifact fetch")
	}
}

func TestArtifactContentTypeByAddress(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	contentType := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return resp.Header.Get("Content-Type")
	}
	for i, format := range []string{FormatTSV, FormatCSV, FormatNDJSON, FormatCSBG} {
		spec := tinySpec(uint64(40 + i))
		spec.Format = format
		_, st := postJob(t, ts, spec)
		pollDone(t, ts, st.ID)
		// A cache-hit resubmit adds a second record naming the artifact.
		postJob(t, ts, spec)
		want := spec.ContentType()
		if got := contentType("/v1/jobs/" + st.ID + "/artifact"); got != want {
			t.Errorf("%s by job: content type %q, want %q", format, got, want)
		}
		if got := contentType("/v1/artifacts/" + st.ArtifactID); got != want {
			t.Errorf("%s by address: content type %q, want %q", format, got, want)
		}
	}
	// An artifact no job named is served as opaque bytes.
	s.Cache().Put("feedface", []byte("src\tdst\n"))
	if got := contentType("/v1/artifacts/feedface"); got != "application/octet-stream" {
		t.Errorf("unnamed artifact: content type %q", got)
	}
}

func TestRepeatedJobServedFromCacheByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	_, st := postJob(t, ts, tinySpec(2))
	pollDone(t, ts, st.ID)
	cold := fetchArtifact(t, ts, st.ID)

	// The identical spec must be answered from the artifact cache: done
	// immediately, flagged as a hit, and byte-identical to the cold run.
	resp, warmSt := postJob(t, ts, tinySpec(2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm submit status = %d, want 200", resp.StatusCode)
	}
	if warmSt.State != StateDone || !warmSt.CacheHit {
		t.Fatalf("warm job = %+v, want done cache hit", warmSt)
	}
	if warmSt.ArtifactID != st.ArtifactID {
		t.Fatal("warm job resolved to a different artifact")
	}
	warm := fetchArtifact(t, ts, warmSt.ID)
	if !bytes.Equal(cold, warm) {
		t.Fatal("cache-hit artifact differs from the cold run")
	}

	m := s.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("hit/miss = %d/%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	// And the /metrics endpoint surfaces the hit.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"csbd_cache_hits_total 1",
		"csbd_cache_misses_total 1",
		"csbd_cache_hit_ratio 0.5000",
		"csbd_jobs_completed_total 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(string(text), "csbd_stage_real_seconds_total{op=") {
		t.Error("/metrics missing per-stage timings")
	}
}

// blockingServer swaps the artifact builder for one that parks until
// released (or its context ends), making admission-control states
// deterministic.
func blockingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}) {
	s, ts := newTestServer(t, cfg)
	release := make(chan struct{})
	s.buildArtifact = func(ctx context.Context, spec Spec) ([]byte, error) {
		select {
		case <-release:
			return []byte("artifact:" + spec.ID()), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s, ts, release
}

func TestAdmissionControlShedsWith429(t *testing.T) {
	s, ts, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1})

	// Job 1 occupies the single worker, job 2 the single queue slot.
	_, st1 := postJob(t, ts, tinySpec(10))
	waitState(t, s, st1.ID, StateRunning)
	resp2, st2 := postJob(t, ts, tinySpec(11))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", resp2.StatusCode)
	}

	// Job 3 must be shed with 429 + Retry-After.
	resp3, _ := postJob(t, ts, tinySpec(12))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if m := s.Metrics(); m.JobsRejected != 1 {
		t.Fatalf("rejected = %d, want 1", m.JobsRejected)
	}

	// A duplicate of the queued job coalesces instead of being shed.
	respDup, stDup := postJob(t, ts, tinySpec(11))
	if respDup.StatusCode != http.StatusAccepted || stDup.ID != st2.ID {
		t.Fatalf("duplicate submit = %d id=%s, want coalesced onto %s", respDup.StatusCode, stDup.ID, st2.ID)
	}

	close(release)
	if st := pollDone(t, ts, st1.ID); st.State != StateDone {
		t.Fatalf("job1 final state %q", st.State)
	}
	if st := pollDone(t, ts, st2.ID); st.State != StateDone {
		t.Fatalf("job2 final state %q", st.State)
	}
}

func waitState(t *testing.T, s *Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j := s.lookup(id); j != nil {
			j.mu.Lock()
			cur := j.state
			j.mu.Unlock()
			if cur == want {
				return
			}
		}
		time.Sleep(2 * time.Millisecond) // paces the poll and synchronises nothing; the state read under j.mu does
	}
	t.Fatalf("job %s never reached %q", id, want)
}

func TestCancelRunningJob(t *testing.T) {
	s, ts, release := blockingServer(t, Config{Workers: 1, QueueDepth: 4})
	defer close(release)
	_, st := postJob(t, ts, tinySpec(20))
	waitState(t, s, st.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	final := pollDone(t, ts, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %q", final.State)
	}
	if m := s.Metrics(); m.JobsCanceled != 1 {
		t.Fatalf("canceled = %d, want 1", m.JobsCanceled)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, ts, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2})
	defer close(release)
	_, st1 := postJob(t, ts, tinySpec(30))
	waitState(t, s, st1.ID, StateRunning)
	_, st2 := postJob(t, ts, tinySpec(31))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st2.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final := pollDone(t, ts, st2.ID); final.State != StateCanceled {
		t.Fatalf("queued job after cancel = %q", final.State)
	}
	// A fresh submit of the same spec must run (the canceled flight slot
	// was reclaimed), not coalesce onto the dead job.
	_, st3 := postJob(t, ts, tinySpec(31))
	if st3.ID == st2.ID {
		t.Fatal("new submit coalesced onto a canceled job")
	}
}

func TestSubmitRejectsInvalidSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []string{
		`{"generator":"pgpba","edges":0}`,
		`{"generator":"pgpba","edges":-3}`,
		`{"generator":"pgpba","edges":100,"fraction":2.5}`,
		`{"generator":"warp","edges":100}`,
		`{"generator":"pgpba","edges":100,"format":"xml"}`,
		`{"edges":100,"bogus_field":1}`,
		`not json`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s accepted with %d", body, resp.StatusCode)
		}
	}
	// Admission cap on target size.
	resp, _ := postJob(t, ts, Spec{Generator: GenPGPBA, Edges: 100_000_000})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over-cap edges accepted with %d", resp.StatusCode)
	}
}

func TestUnknownJobAndArtifactAre404(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/jobs/j999", "/v1/jobs/j999/artifact", "/v1/artifacts/deadbeef"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestNewRejectsInvalidShape holds New to the checks every job's cluster
// makes: a shape the engine rejects fails the server at startup, before it
// reports ready, instead of failing each job it accepts.
func TestNewRejectsInvalidShape(t *testing.T) {
	for _, sh := range []EngineShape{
		{Nodes: -1},
		{Faults: cluster.NewFaultPlan(1, 2)},
	} {
		if s, err := New(Config{Workers: 1, Shape: sh}); err == nil {
			s.Close()
			t.Errorf("New accepted shape %+v", sh)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

// TestConcurrentJobsSharedTracer exercises concurrent Tracer span appends
// from simultaneous server jobs — every job cluster streams its stages into
// the one shared tracer. Run under -race (the CI default) this is the
// data-race check for the whole submit/run/trace path.
func TestConcurrentJobsSharedTracer(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	const n = 8
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds so nothing coalesces; every job really runs.
			_, st := postJob(t, ts, tinySpec(100+uint64(i)))
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			t.Fatalf("job %d was not accepted", i)
		}
		if st := pollDone(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s = %q (%s)", id, st.State, st.Error)
		}
	}
	if spans := s.Tracer().Spans(); len(spans) == 0 {
		t.Fatal("shared tracer recorded no spans")
	}
	m := s.Metrics()
	if m.JobsCompleted != n || m.CacheMisses != n {
		t.Fatalf("completed/misses = %d/%d, want %d/%d", m.JobsCompleted, m.CacheMisses, n, n)
	}
	if len(m.Stages) == 0 {
		t.Fatal("no per-stage metrics aggregated")
	}
}

func TestArtifactFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, format := range []string{FormatTSV, FormatCSBG, FormatCSV, FormatNDJSON} {
		spec := tinySpec(40)
		spec.Format = format
		_, st := postJob(t, ts, spec)
		final := pollDone(t, ts, st.ID)
		if final.State != StateDone {
			t.Fatalf("%s job = %q (%s)", format, final.State, final.Error)
		}
		data := fetchArtifact(t, ts, st.ID)
		if len(data) == 0 {
			t.Fatalf("%s artifact is empty", format)
		}
		switch format {
		case FormatCSBG:
			if !bytes.HasPrefix(data, []byte("CSBG")) {
				t.Errorf("csbg artifact lacks magic: %q", data[:8])
			}
		case FormatNDJSON:
			var first map[string]any
			line, _, _ := bytes.Cut(data, []byte("\n"))
			if err := json.Unmarshal(line, &first); err != nil {
				t.Errorf("ndjson first line: %v", err)
			}
		}
	}
}

func TestServerCloseRejectsNewJobs(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	spec := tinySpec(50)
	if _, err := s.Submit(&spec); err == nil {
		t.Fatal("closed server accepted a job")
	}
	s.Close() // double close is a no-op
}

func TestRetryAfterClamped(t *testing.T) {
	s, _, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1, JobTimeout: time.Hour})
	defer close(release)
	spec1, spec2 := tinySpec(60), tinySpec(61)
	st1, err := s.Submit(&spec1)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st1.ID, StateRunning)
	if _, err := s.Submit(&spec2); err != nil {
		t.Fatal(err)
	}
	ra := s.retryAfter()
	if ra == "" {
		t.Fatal("empty Retry-After")
	}
	var sec int
	fmt.Sscanf(ra, "%d", &sec)
	if sec < 1 || sec > 60 {
		t.Fatalf("Retry-After %d outside [1, 60]", sec)
	}
}

// TestSubmitRejectsUnboundedSeedTraces sends specs whose seed trace no
// build should synthesize — sessions past maxSessions (among them counts
// under MaxEdges: a session costs the trace far more than an edge costs
// the artifact), hosts past the trace's address plan — flat and as
// scenario backgrounds, which carry no edge count of their own. Each gets
// 400, and the daemon goes on serving. A spec that gets past admission
// anyway reaches a stub build, so a broken bound fails the test instead of
// allocating gigabytes.
func TestSubmitRejectsUnboundedSeedTraces(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	build := s.buildArtifact
	s.buildArtifact = func(ctx context.Context, spec Spec) ([]byte, error) {
		if spec.Scenario != nil || spec.Sessions > 1000 || spec.Hosts > 1000 {
			return nil, errors.New("stub: an unbounded spec was admitted")
		}
		return build(ctx, spec)
	}
	background := func(hosts, sessions int) Spec {
		sc := tinyScenario()
		sc.Background.Hosts, sc.Background.Sessions = hosts, sessions
		return Spec{Scenario: sc}
	}
	bad := []Spec{
		{Generator: GenPGPBA, Hosts: 100, Sessions: 1 << 60, Edges: 1000},
		{Generator: GenPGSK, Sessions: maxSessions + 1, Edges: 1000},
		{Generator: GenPGPBA, Hosts: 100, Sessions: defaultMaxEdges, Edges: 1000},
		background(100, maxSessions+1),
		{Generator: GenPGPBA, Hosts: 2_000_000_000, Edges: 1000},
		{Generator: GenPGPBA, Hosts: pcap.MaxHosts + 1, Edges: 1000},
		background(100, 1<<60),
		background(1<<25, 150),
	}
	for _, spec := range bad {
		if resp, _ := postJob(t, ts, spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v (background %+v) answered %d, want 400", spec, spec.Scenario, resp.StatusCode)
		}
	}
	_, st := postJob(t, ts, tinySpec(90))
	if final := pollDone(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("job after the refused specs = %q (%s)", final.State, final.Error)
	}
}

// TestBuildPanicFailsJob: a panic escaping a build fails its job, without a
// retry, instead of killing the daemon; the failure is journaled, so a
// restart on the same journal does not run the job (and the panic) again.
func TestBuildPanicFailsJob(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "csbd.wal")
	jl := openJournalT(t, walPath)
	s, ts := newTestServer(t, Config{Workers: 1, JobRetries: 2, Journal: jl})
	build := s.buildArtifact
	var builds atomic.Int64
	s.buildArtifact = func(ctx context.Context, spec Spec) ([]byte, error) {
		if spec.Seed == 91 {
			builds.Add(1)
			panic("makeslice: cap out of range")
		}
		return build(ctx, spec)
	}
	_, st := postJob(t, ts, tinySpec(91))
	final := pollDone(t, ts, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "build panicked: makeslice") {
		t.Fatalf("panicking job = %q (%s), want failed with the panic", final.State, final.Error)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("the panicking build ran %d times, want 1", n)
	}
	_, st = postJob(t, ts, tinySpec(92))
	if final := pollDone(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("job after the panic = %q (%s)", final.State, final.Error)
	}
	s.Close()
	jl.Close()
	restarted, _ := newTestServer(t, Config{Workers: 1, Journal: openJournalT(t, walPath)})
	if m := restarted.Metrics(); m.Journal.JobsResumed != 0 {
		t.Fatalf("restart resumed %d jobs, want 0", m.Journal.JobsResumed)
	}
}

// TestJobDoneWhileItsVictimSpills holds the spill of the artifact a
// finishing job evicts: the job's status must already read done, and its
// artifact must be servable, while that write is still held.
func TestJobDoneWhileItsVictimSpills(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: 1, CacheDir: t.TempDir(), CacheDiskBytes: 1 << 20})
	s.buildArtifact = func(ctx context.Context, spec Spec) ([]byte, error) {
		return []byte("artifact:" + spec.ID()), nil
	}
	held := holdSpills(s.Cache())
	_, st1 := postJob(t, ts, tinySpec(90))
	pollDone(t, ts, st1.ID)
	_, st2 := postJob(t, ts, tinySpec(91))
	h := <-held // job 2's insert evicted job 1's artifact
	defer close(h.release)
	if h.id != st1.ArtifactID {
		t.Fatalf("held spill of %s, want job 1's artifact %s", h.id, st1.ArtifactID)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job 2 reads %q while its victim's spill is held, want done", st.State)
	}
	if got := fetchArtifact(t, ts, st2.ID); string(got) != "artifact:"+st2.ArtifactID {
		t.Fatalf("job 2's artifact = %q", got)
	}
}
