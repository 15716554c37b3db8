package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"csb/internal/journal"
	"csb/internal/serve"
)

// startDaemon boots the daemon on an ephemeral port and returns its base
// URL plus a shutdown function.
func startDaemon(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	ready := make(chan string, 1)
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	var out bytes.Buffer
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { errCh <- run(args, &out, ready, stop) }()
	var once sync.Once
	select {
	case addr := <-ready:
		return "http://" + addr, func() error {
			once.Do(func() { close(stop) })
			select {
			case err := <-errCh:
				errCh <- err // keep for a second shutdown call
				return err
			case <-time.After(15 * time.Second):
				return fmt.Errorf("daemon did not shut down")
			}
		}
	case err := <-errCh:
		t.Fatalf("daemon exited early: %v (output: %s)", err, out.String())
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return "", nil
}

func TestDaemonEndToEnd(t *testing.T) {
	base, shutdown := startDaemon(t)
	defer shutdown()

	// Liveness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Submit a tiny PGSK job and poll it to completion.
	body := `{"generator":"pgsk","hosts":15,"sessions":150,"seed":6,"edges":2000}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		r, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("job state = %q", st.State)
		}
		time.Sleep(10 * time.Millisecond) // paces a poll of the job's state
	}

	// Download the artifact.
	r, err := http.Get(base + "/v1/jobs/" + st.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("src\tdst\t")) {
		t.Fatalf("artifact is not a TSV edge list: %.40q", data)
	}

	// The metrics endpoint reflects the completed job.
	r, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(metrics), "csbd_jobs_completed_total 1") {
		t.Fatalf("metrics missing completion: %s", metrics)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestDaemonBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-notaflag"}, &out, nil, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-workers", "-3", "-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("negative workers accepted")
	}
	// An engine shape no job's cluster would accept fails at startup.
	if err := run([]string{"-nodes", "-1", "-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("negative nodes accepted")
	}
	if err := run([]string{"-fault-rate", "2", "-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("fault rate above 1 accepted")
	}
	// -chaos-net only makes sense on the distributed wire.
	if err := run([]string{"-chaos-net", "latency=1ms", "-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("-chaos-net accepted for standalone role")
	}
	if err := run([]string{"-role", "coordinator", "-chaos-net", "latency=bogus", "-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("malformed -chaos-net spec accepted")
	}
}

// TestDaemonJournalResumesInterruptedJob simulates the kill -9 case at the
// binary surface: a journal holding an accepted-but-unfinished job (exactly
// what an abrupt death leaves behind) is handed to a fresh daemon via
// -journal, which must re-enqueue the job and make its artifact fetchable by
// content address.
func TestDaemonJournalResumesInterruptedJob(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "csbd.wal")
	spec := serve.Spec{Generator: serve.GenPGSK, Hosts: 15, Sessions: 150, Seed: 6, Edges: 2000}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := journal.Open(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(journal.Record{Kind: "job.accepted", Key: spec.ID(), Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	base, shutdown := startDaemon(t, "-journal", wal)
	defer shutdown()
	deadline := time.Now().Add(60 * time.Second)
	var data []byte
	for {
		if time.Now().After(deadline) {
			t.Fatal("resumed job's artifact never appeared")
		}
		r, err := http.Get(base + "/v1/artifacts/" + spec.ID())
		if err != nil {
			t.Fatal(err)
		}
		data, _ = io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(10 * time.Millisecond) // paces a poll of the artifact endpoint
	}
	if !bytes.HasPrefix(data, []byte("src\tdst\t")) {
		t.Fatalf("resumed artifact is not a TSV edge list: %.40q", data)
	}
	r, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(metrics), "csbd_jobs_resumed_total 1") {
		t.Fatalf("metrics missing resume count: %s", metrics)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// A second boot over the same journal resumes nothing: the first run
	// journaled the job's completion and compacted the log.
	base2, shutdown2 := startDaemon(t, "-journal", wal)
	defer shutdown2()
	r, err = http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(metrics), "csbd_jobs_resumed_total 0") {
		t.Fatalf("second boot resumed jobs: %s", metrics)
	}
}

// TestCoordinatorJournalStaysSmall: a journaled coordinator's log holds job
// records only, never stage results, so four 100k-edge artifacts built on a
// worker leave it a few hundred bytes a job, not megabytes.
func TestCoordinatorJournalStaysSmall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	distAddr := ln.Addr().String()
	ln.Close() // a free port for the coordinator's worker listener
	wal := filepath.Join(t.TempDir(), "csbd.wal")
	base, shutdown := startDaemon(t, "-role", "coordinator", "-dist-addr", distAddr,
		"-min-workers", "1", "-workers", "1", "-journal", wal)
	defer shutdown()

	wready := make(chan string, 1)
	wstop := make(chan struct{})
	werr := make(chan error, 1)
	go func() {
		werr <- run([]string{"-role", "worker", "-join", distAddr, "-name", "w1"}, io.Discard, wready, wstop)
	}()
	defer func() {
		close(wstop)
		<-werr
	}()
	<-wready
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker never joined the coordinator")
		}
		time.Sleep(10 * time.Millisecond) // paces a poll of /readyz
	}

	const jobs = 4
	for seed := 1; seed <= jobs; seed++ {
		spec := serve.Spec{Generator: serve.GenPGPBA, Edges: 100_000, Seed: uint64(seed), Format: "tsv"}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(spec)
		r, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", seed, r.StatusCode)
		}
		deadline := time.Now().Add(120 * time.Second)
		for {
			r, err := http.Get(base + "/v1/artifacts/" + spec.ID())
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(r.Body)
			r.Body.Close()
			if r.StatusCode == http.StatusOK {
				if !bytes.HasPrefix(data, []byte("src\tdst\t")) {
					t.Fatalf("artifact %d is not a TSV edge list: %.40q", seed, data)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never produced its artifact", seed)
			}
			time.Sleep(20 * time.Millisecond) // paces a poll of the artifact endpoint
		}
	}

	r, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if strings.Contains(string(metrics), "csbd_dist_tasks_dispatched_total 0\n") {
		t.Fatalf("no task reached the worker: %s", metrics)
	}
	var walBytes int64 = -1
	for _, line := range strings.Split(string(metrics), "\n") {
		if v, ok := strings.CutPrefix(line, "csbd_journal_bytes "); ok {
			walBytes, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	t.Logf("csbd_journal_bytes = %d after %d jobs", walBytes, jobs)
	if walBytes < 0 || walBytes >= jobs*4<<10 {
		t.Fatalf("csbd_journal_bytes = %d after %d jobs, want under %d", walBytes, jobs, jobs*4<<10)
	}
}
