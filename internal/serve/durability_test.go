package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"csb/internal/cluster"
	"csb/internal/journal"
)

func openJournalT(t *testing.T, path string) *journal.Journal {
	t.Helper()
	jl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl
}

// TestCrashResumeByteIdentical is the serve half of the crash-resume
// acceptance criterion: a daemon killed (simulated: abandoned without Close)
// while a journaled job is mid-build must, after restart on the same
// journal, re-enqueue the job and produce bytes identical to an
// uninterrupted run.
func TestCrashResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(77)

	// Golden: an uninterrupted, journal-free run of the same spec.
	sGold, tsGold := newTestServer(t, Config{Workers: 1})
	_ = sGold
	_, st := postJob(t, tsGold, spec)
	pollDone(t, tsGold, st.ID)
	golden := fetchArtifact(t, tsGold, st.ID)
	artifactID := st.ArtifactID

	// "Crashed" daemon: the build blocks forever, so the accepted job never
	// reaches a terminal journal record. No Close — that is the kill -9.
	walPath := filepath.Join(dir, "csbd.wal")
	jl1 := openJournalT(t, walPath)
	crashed, err := New(Config{Workers: 1, Journal: jl1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	crashed.buildArtifact = func(ctx context.Context, spec Spec) ([]byte, error) {
		<-release
		return nil, errors.New("abandoned")
	}
	spec2 := spec
	if _, err := crashed.Submit(&spec2); err != nil {
		t.Fatal(err)
	}
	// The accepted record is on disk before Submit returns; nothing else to
	// wait for. Reopen the journal as a restarted process would.
	jl2 := openJournalT(t, walPath)
	restarted, tsRestarted := newTestServer(t, Config{Workers: 1, Journal: jl2})

	m := restarted.Metrics()
	if m.Journal == nil || m.Journal.JobsResumed != 1 {
		t.Fatalf("resumed journal metrics = %+v, want 1 job resumed", m.Journal)
	}
	// The resumed job carries the same content address; poll it there.
	deadline := time.Now().Add(60 * time.Second)
	var got []byte
	for {
		resp, err := http.Get(tsRestarted.URL + "/v1/artifacts/" + artifactID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			got = buf.Bytes()
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("resumed job never produced the artifact")
		}
		time.Sleep(10 * time.Millisecond) // paces the poll and synchronises nothing; the 200 above does
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("resumed artifact differs from uninterrupted run: %d vs %d bytes", len(got), len(golden))
	}

	// A second restart finds the job terminal and resumes nothing.
	restarted.Close()
	jl3 := openJournalT(t, walPath)
	again, _ := newTestServer(t, Config{Workers: 1, Journal: jl3})
	if m := again.Metrics(); m.Journal.JobsResumed != 0 {
		t.Fatalf("terminal job resumed on second restart: %+v", m.Journal)
	}
}

// TestGracefulCloseResumesAcceptedJobs: Close cancels the builds it stops
// without journaling them terminal, whatever error they end with, so a
// restart on the same journal resumes every accepted job, running or queued,
// and serves its clean bytes. Jobs a client canceled, running or queued, stay
// canceled.
func TestGracefulCloseResumesAcceptedJobs(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "csbd.wal")
	jl1, err := journal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Workers: 2, Journal: jl1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan uint64, 8)
	s1.buildArtifact = func(ctx context.Context, spec Spec) ([]byte, error) {
		started <- spec.Seed
		<-ctx.Done()
		// A stopped build need not end in a context error: a stage the
		// cancel interrupts may report its own failure, or panic.
		switch spec.Seed {
		case 2:
			return nil, errors.New("stage failed after cancel")
		case 3:
			panic("stage panicked after cancel")
		}
		return nil, ctx.Err()
	}
	submit := func(seed uint64) JobStatus {
		spec := tinySpec(seed)
		st, err := s1.Submit(&spec)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	awaitStarted := func(want ...uint64) {
		got := map[uint64]bool{}
		for range want {
			got[<-started] = true
		}
		for _, seed := range want {
			if !got[seed] {
				t.Fatalf("builds started %v, want %v", got, want)
			}
		}
	}
	runningCanceled := submit(1)
	submit(2)
	awaitStarted(1, 2)
	submit(3)
	queuedCanceled := submit(4)
	submit(5)
	// The client's cancel frees a worker, which takes job 3; 4 and 5 wait.
	s1.CancelJob(runningCanceled.ID)
	awaitStarted(3)
	s1.CancelJob(queuedCanceled.ID)
	s1.Close()
	jl1.Close()

	s2, _ := newTestServer(t, Config{Workers: 2, Journal: openJournalT(t, walPath)})
	if m := s2.Metrics(); m.Journal == nil || m.Journal.JobsResumed != 3 {
		t.Fatalf("journal metrics after a graceful restart = %+v, want jobs 2, 3 and 5 resumed", m.Journal)
	}
	for _, seed := range []uint64{2, 3, 5} {
		spec := tinySpec(seed)
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		want, err := BuildArtifact(context.Background(), spec, cluster.MustNew(cluster.Config{}))
		if err != nil {
			t.Fatal(err)
		}
		if got := awaitCached(t, s2, spec.ID()); !bytes.Equal(got, want) {
			t.Errorf("job %d: resumed artifact differs from a clean build", seed)
		}
	}
}

// TestResumeSkipsTerminalJobs: done/failed/canceled jobs in the journal are
// not re-enqueued, and compaction drops their records.
func TestResumeSkipsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	mkRecords := func(name string, terminalKind string) string {
		path := filepath.Join(dir, name)
		jl := openJournalT(t, path)
		spec := tinySpec(5)
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		specJSON, _ := json.Marshal(spec)
		jl.Append(journal.Record{Kind: journalJobAccepted, Key: spec.ID(), Payload: specJSON})
		jl.Append(journal.Record{Kind: terminalKind, Key: spec.ID()})
		jl.Close()
		return path
	}
	for _, kind := range []string{journalJobDone, journalJobFailed, journalJobCanceled} {
		path := mkRecords("wal-"+kind, kind)
		jl := openJournalT(t, path)
		s, err := New(Config{Workers: 1, Journal: jl})
		if err != nil {
			t.Fatal(err)
		}
		m := s.Metrics()
		if m.Journal.JobsResumed != 0 {
			t.Errorf("%s: resumed %d jobs, want 0", kind, m.Journal.JobsResumed)
		}
		if m.JobsSubmitted != 0 {
			t.Errorf("%s: %d jobs submitted during resume", kind, m.JobsSubmitted)
		}
		s.Close()
		// Compaction left nothing behind for a fully-terminal history.
		jl2 := openJournalT(t, path)
		if recs := jl2.Records(); len(recs) != 0 {
			t.Errorf("%s: post-compaction records = %+v", kind, recs)
		}
	}
}

// TestResumeReopensReacceptedJob: accepted → done → accepted (resubmit after
// cache eviction) must resume, since the latest acceptance is unfinished.
func TestResumeReopensReacceptedJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	jl := openJournalT(t, path)
	spec := tinySpec(9)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	specJSON, _ := json.Marshal(spec)
	key := spec.ID()
	jl.Append(journal.Record{Kind: journalJobAccepted, Key: key, Payload: specJSON})
	jl.Append(journal.Record{Kind: journalJobDone, Key: key})
	jl.Append(journal.Record{Kind: journalJobAccepted, Key: key, Payload: specJSON})
	jl.Close()

	jl2 := openJournalT(t, path)
	s, err := New(Config{Workers: 1, Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Metrics().Journal.JobsResumed; got != 1 {
		t.Fatalf("resumed %d jobs, want 1", got)
	}
}

// awaitCached polls s's cache until the artifact id lands in it.
func awaitCached(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, ok := s.Cache().Get(id); ok {
			return data
		}
		if time.Now().After(deadline) {
			t.Fatalf("artifact %s never reached the cache", id)
		}
		time.Sleep(10 * time.Millisecond) // paces a poll of the cache
	}
}

// TestResumeCountsFailedCompaction: a compaction that cannot write its temp
// file is counted as a journal error, and the job is resumed regardless.
func TestResumeCountsFailedCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal-dir")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "csbd.wal")
	jl := openJournalT(t, path)
	spec := tinySpec(21)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	specJSON, _ := json.Marshal(spec)
	if err := jl.Append(journal.Record{Kind: journalJobAccepted, Key: spec.ID(), Payload: specJSON}); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	jl = openJournalT(t, path) // replays the accepted record
	// The open descriptor keeps working, but Compact's temp file cannot be
	// created in a directory that is gone.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, Journal: jl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if m := s.Metrics().Journal; m.AppendErrors != 1 || m.JobsResumed != 1 {
		t.Fatalf("journal metrics = %+v, want 1 error (the compaction) and 1 job resumed", m)
	}
	awaitCached(t, s, spec.ID())
}

// TestResumeDropsTaskCheckpointRecords opens a journal in the format older
// coordinators wrote: one accepted job plus "task.done" stage checkpoints,
// one of them over 1 MiB. The daemon must read past them, rebuild the job
// to the in-process bytes, and compact the checkpoints away.
func TestResumeDropsTaskCheckpointRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "csbd.wal")
	spec := tinySpec(23)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	c, err := EngineShape{}.newCluster(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := BuildArtifact(context.Background(), spec, c)
	if err != nil {
		t.Fatal(err)
	}

	jl := openJournalT(t, path)
	specJSON, _ := json.Marshal(spec)
	recs := []journal.Record{
		{Kind: journalJobAccepted, Key: spec.ID(), Payload: specJSON},
		{Kind: "task.done", Key: "t1", Payload: bytes.Repeat([]byte{0xA1}, 300)},
		{Kind: "task.done", Key: "t2", Payload: bytes.Repeat([]byte{0xB2}, 3<<19)}, // 1.5 MiB
		{Kind: "task.done", Key: "t3", Payload: []byte("rows")},
	}
	for _, rec := range recs {
		if err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	jl2 := openJournalT(t, path)
	s, err := New(Config{Workers: 1, Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics().Journal; m.Replayed != int64(len(recs)) || m.JobsResumed != 1 || m.AppendErrors != 0 {
		t.Fatalf("journal metrics = %+v, want %d replayed, 1 resumed, 0 errors", m, len(recs))
	}
	if got := awaitCached(t, s, spec.ID()); !bytes.Equal(got, golden) {
		t.Fatalf("resumed artifact differs from the in-process build: %d vs %d bytes", len(got), len(golden))
	}
	s.Close()
	jl2.Close()

	jl3 := openJournalT(t, path)
	for _, rec := range jl3.Records() {
		if rec.Kind == "task.done" {
			t.Fatalf("compaction kept a task checkpoint: %s %s (%d bytes)", rec.Kind, rec.Key, len(rec.Payload))
		}
	}
	if st := jl3.Stats(); st.Bytes > 4<<10 {
		t.Fatalf("compacted journal is %d bytes, want under 4 KiB", st.Bytes)
	}
}
