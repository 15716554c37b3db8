package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSpillFileRoundTrip exercises the framed spill format directly:
// write-read round trip, and rejection of every corruption class — short
// read, truncation, trailing garbage, bit rot, bad magic.
func TestSpillFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/a.art"
	payload := []byte("the artifact bytes")
	if err := writeSpillFile(dir, path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readSpillFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q, want %q", got, payload)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func() []byte{
		"short header": func() []byte { return raw[:spillHeaderLen-1] },
		"truncated payload": func() []byte {
			return raw[:len(raw)-3]
		},
		"trailing garbage": func() []byte {
			return append(append([]byte(nil), raw...), 'x')
		},
		"bit rot": func() []byte {
			b := append([]byte(nil), raw...)
			b[len(b)-1] ^= 0x40
			return b
		},
		"bad magic": func() []byte {
			b := append([]byte(nil), raw...)
			b[0] = 'X'
			return b
		},
	}
	for name, mutate := range corruptions {
		if err := os.WriteFile(path, mutate(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSpillFile(path); !errors.Is(err, errSpillCorrupt) {
			t.Errorf("%s: err = %v, want errSpillCorrupt", name, err)
		}
	}
	os.Remove(path)
	if _, err := readSpillFile(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: err = %v, want fs.ErrNotExist", err)
	}
	// No temp files left behind by the atomic write path.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover file %s", e.Name())
	}
}

// TestCacheQuarantinesCorruptSpill corrupts a spilled artifact under the
// cache and asserts the read path quarantines it (moved aside, counted,
// reported as a miss) instead of serving bad bytes.
func TestCacheQuarantinesCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1, dir, 1<<20) // 1-byte budget: second Put spills the first
	if err != nil {
		t.Fatal(err)
	}
	c.Put("aa", []byte("artifact-aa"))
	c.Put("bb", []byte("artifact-bb")) // evicts + spills "aa"
	if got := c.Stats().Spills; got != 1 {
		t.Fatalf("spills = %d, want 1", got)
	}
	path := c.spillPath("aa")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if data, ok := c.Get("aa"); ok {
		t.Fatalf("corrupt spill served: %q", data)
	}
	st := c.Stats()
	if st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	if st.DiskEntries != 0 {
		t.Errorf("disk entries = %d, want 0 after quarantine", st.DiskEntries)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt spill still at %s", path)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	// The healthy entry is unaffected.
	if data, ok := c.Get("bb"); !ok || !bytes.Equal(data, []byte("artifact-bb")) {
		t.Fatalf("healthy entry lost: %q %v", data, ok)
	}
}

// waitSpilled returns once id is indexed on the disk tier. A finished job
// reads done before the spill its insert caused has landed.
func waitSpilled(t *testing.T, c *Cache, id string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		c.mu.Lock()
		_, ok := c.disk[id]
		c.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached the disk tier", id)
		}
		time.Sleep(time.Millisecond) // paces the poll and synchronises nothing; the index read under the cache lock does
	}
}

// TestDaemonRegeneratesQuarantinedArtifact is the end-to-end recovery
// story: an artifact whose spill file was corrupted on disk is quarantined
// on the next submit and regenerated, and the regenerated bytes are
// identical to the original.
func TestDaemonRegeneratesQuarantinedArtifact(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: 1, CacheDir: dir, CacheDiskBytes: 64 << 20})

	_, st1 := postJob(t, ts, tinySpec(30))
	done1 := pollDone(t, ts, st1.ID)
	if done1.State != StateDone {
		t.Fatalf("first job: %+v", done1)
	}
	original := fetchArtifact(t, ts, st1.ID)

	// A different spec evicts the first artifact to disk (1-byte budget).
	_, st2 := postJob(t, ts, tinySpec(31))
	pollDone(t, ts, st2.ID)
	waitSpilled(t, s.Cache(), done1.ArtifactID)
	path := s.Cache().spillPath(done1.ArtifactID)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("first artifact was not spilled: %v", err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resubmitting the corrupted artifact's spec must regenerate, not serve
	// the poisoned cache entry as an instant cache hit.
	resp3, st3 := postJob(t, ts, tinySpec(30))
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after corruption = %d, want 202 (regeneration)", resp3.StatusCode)
	}
	if st3.CacheHit {
		t.Fatal("corrupt artifact reported as cache hit")
	}
	done3 := pollDone(t, ts, st3.ID)
	if done3.State != StateDone {
		t.Fatalf("regeneration failed: %+v", done3)
	}
	if regenerated := fetchArtifact(t, ts, st3.ID); !bytes.Equal(regenerated, original) {
		t.Fatalf("regenerated artifact differs: %d vs %d bytes", len(regenerated), len(original))
	}
	if q := s.Cache().Stats().Quarantined; q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
}

// TestSubmitRechecksCacheBeforeAdmitting drives the window between Submit's
// cache lookup and its admission under s.mu deterministically: a job that
// puts the artifact and leaves inflight inside it must turn the submit into
// a cache hit, not a second build.
func TestSubmitRechecksCacheBeforeAdmitting(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	var builds atomic.Int64
	s.buildArtifact = func(ctx context.Context, spec Spec) ([]byte, error) {
		builds.Add(1)
		return []byte("rebuilt"), nil
	}
	spec := tinySpec(70)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	misses := s.Cache().Stats().Misses

	s.mu.Lock()
	type reply struct {
		st  JobStatus
		err error
	}
	done := make(chan reply, 1)
	go func() {
		st, err := s.Submit(&spec)
		done <- reply{st, err}
	}()
	for s.Cache().Stats().Misses == misses {
		time.Sleep(time.Millisecond) // paces the poll and synchronises nothing; the miss count, read under the cache lock, does
	}
	// What a job's runJob does: put the artifact, then leave inflight
	// (finishInflight's bookkeeping, inlined as the test holds s.mu).
	s.cache.Put(spec.ID(), []byte("built"))
	s.settled.Add(1)
	s.mu.Unlock()

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.st.State != StateDone || !r.st.CacheHit {
		t.Fatalf("submit = %s (cache hit %v), want a done cache hit", r.st.State, r.st.CacheHit)
	}
	if m := s.Metrics(); m.CacheHits != 1 || m.CacheMisses != 0 {
		t.Fatalf("hit/miss = %d/%d, want 1/0", m.CacheHits, m.CacheMisses)
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("builds = %d, want 0", n)
	}
}

// TestConcurrentQuarantineSingleRegeneration hammers one corrupted spilled
// artifact with parallel submits and artifact GETs: exactly one reader wins
// the quarantine (counter = 1), single-flight admission means exactly one
// regeneration build runs, and no GET ever sees torn bytes — every response
// is either 404 or the complete original artifact.
func TestConcurrentQuarantineSingleRegeneration(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, CacheBytes: 1, CacheDir: dir, CacheDiskBytes: 64 << 20})
	var builds sync.Map // artifact id -> *int64 build count
	orig := s.buildArtifact
	s.buildArtifact = func(ctx context.Context, spec Spec) ([]byte, error) {
		n, _ := builds.LoadOrStore(spec.ID(), new(int64))
		atomic.AddInt64(n.(*int64), 1)
		return orig(ctx, spec)
	}

	_, st1 := postJob(t, ts, tinySpec(60))
	pollDone(t, ts, st1.ID)
	original := fetchArtifact(t, ts, st1.ID)
	// Evict the artifact to disk, then corrupt the spill file.
	_, st2 := postJob(t, ts, tinySpec(61))
	pollDone(t, ts, st2.ID)
	waitSpilled(t, s.Cache(), st1.ArtifactID)
	path := s.Cache().spillPath(st1.ArtifactID)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("first artifact was not spilled: %v", err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	const parallel = 16
	var wg sync.WaitGroup
	ids := make([]string, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half submit (regeneration pressure), half GET the artifact by
			// content address (torn-read pressure).
			if i%2 == 0 {
				spec := tinySpec(60)
				jst, err := s.Submit(&spec)
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				ids[i] = jst.ID
				return
			}
			resp, err := http.Get(ts.URL + "/v1/artifacts/" + st1.ArtifactID)
			if err != nil {
				t.Errorf("get %d: %v", i, err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				if !bytes.Equal(body, original) {
					t.Errorf("get %d: torn read — %d bytes, want %d", i, len(body), len(original))
				}
			case http.StatusNotFound: // quarantined and not yet regenerated
			default:
				t.Errorf("get %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id != "" {
			pollDone(t, ts, id)
		}
	}

	// Exactly one quarantine despite 16 concurrent readers of the corrupt
	// file, and exactly one regeneration (2 builds total: original + regen).
	if q := s.Cache().Stats().Quarantined; q != 1 {
		t.Errorf("quarantined = %d, want exactly 1", q)
	}
	n, ok := builds.Load(st1.ArtifactID)
	if !ok || atomic.LoadInt64(n.(*int64)) != 2 {
		var got int64
		if ok {
			got = atomic.LoadInt64(n.(*int64))
		}
		t.Errorf("builds of corrupted artifact = %d, want exactly 2 (original + one regeneration)", got)
	}
	// The regenerated bytes are the original bytes.
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + st1.ArtifactID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, original) {
		t.Fatalf("post-regeneration fetch: status %d, %d bytes (want %d)", resp.StatusCode, len(body), len(original))
	}
}

// TestReadyzFlipsUnderQueueSaturation drives the daemon to a full queue and
// watches /readyz flip 200 -> 503 -> 200.
func TestReadyzFlipsUnderQueueSaturation(t *testing.T) {
	s, ts, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1})

	getReadyz := func() (int, string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := getReadyz(); code != http.StatusOK {
		t.Fatalf("idle readyz = %d %q", code, body)
	}

	// Fill the worker, then the single queue slot.
	_, st1 := postJob(t, ts, tinySpec(40))
	waitState(t, s, st1.ID, StateRunning)
	postJob(t, ts, tinySpec(41))

	code, body := getReadyz()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz = %d %q, want 503", code, body)
	}
	if body != "job queue saturated\n" {
		t.Errorf("readyz reason = %q", body)
	}

	close(release)
	pollDone(t, ts, st1.ID)
	deadlineReady := false
	for i := 0; i < 500; i++ {
		if code, _ := getReadyz(); code == http.StatusOK {
			deadlineReady = true
			break
		}
		time.Sleep(2 * time.Millisecond) // paces the poll and synchronises nothing; the 200 above does
	}
	if !deadlineReady {
		t.Fatal("readyz never recovered after drain")
	}
}

// TestJobRetriesRecoverTransientFailures swaps in a builder that fails its
// first attempt per artifact and asserts the retry loop absorbs it.
func TestJobRetriesRecoverTransientFailures(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobRetries: 2})
	attempts := make(map[string]int)
	s.buildArtifact = func(ctx context.Context, spec Spec) ([]byte, error) {
		attempts[spec.ID()]++
		if attempts[spec.ID()] == 1 {
			return nil, errors.New("transient build flake")
		}
		return []byte("artifact:" + spec.ID()), nil
	}

	_, st := postJob(t, ts, tinySpec(50))
	done := pollDone(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("job = %+v, want done after retry", done)
	}
	if got := attempts[done.ArtifactID]; got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
	if got := s.Metrics().JobRetries; got != 1 {
		t.Errorf("JobRetries = %d, want 1", got)
	}

	// Exhausted retries still fail cleanly.
	s.buildArtifact = func(ctx context.Context, spec Spec) ([]byte, error) {
		return nil, errors.New("permanent failure")
	}
	_, st2 := postJob(t, ts, tinySpec(51))
	done2 := pollDone(t, ts, st2.ID)
	if done2.State != StateFailed || done2.Error != "permanent failure" {
		t.Fatalf("job = %+v, want failed with builder error", done2)
	}
}
