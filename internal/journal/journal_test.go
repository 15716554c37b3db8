package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func openT(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j := openT(t, path)
	want := []Record{
		{Kind: "job.accepted", Key: "a1", Payload: []byte(`{"seed":7}`)},
		{Kind: "task.done", Key: "t1", Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{Kind: "job.done", Key: "a1"},
		{Kind: "empty.payload", Key: ""},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Stats().Appended; got != int64(len(want)) {
		t.Fatalf("Appended = %d, want %d", got, len(want))
	}
	j.Close()

	j2 := openT(t, path)
	got := j2.Records()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Key != want[i].Key ||
			!bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st := j2.Stats(); st.Replayed != len(want) || st.TruncatedBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTornTailTruncated simulates kill -9 mid-append: the journal must come
// back with every intact record and the torn bytes discarded.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j := openT(t, path)
	j.Append(Record{Kind: "job.accepted", Key: "a1", Payload: []byte("spec")})
	j.Append(Record{Kind: "job.accepted", Key: "a2", Payload: []byte("spec2")})
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 20; cut++ {
		torn := raw[:len(raw)-cut]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		recs := j2.Records()
		if len(recs) != 1 || recs[0].Key != "a1" {
			t.Fatalf("cut %d: replayed %+v, want only a1", cut, recs)
		}
		if j2.Stats().TruncatedBytes == 0 {
			t.Fatalf("cut %d: no truncation reported", cut)
		}
		// Appends after repair land after the surviving record.
		if err := j2.Append(Record{Kind: "job.done", Key: "a1"}); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		j3 := openT(t, path)
		if recs := j3.Records(); len(recs) != 2 || recs[1].Kind != "job.done" {
			t.Fatalf("cut %d: after repair+append replayed %+v", cut, recs)
		}
		j3.Close()
	}
}

// TestTornLengthAllocatesNothing tears the tail so that its payload length
// claims 200 MiB: Open must keep the good record and drop the tail without
// allocating what the torn length asks for.
func TestTornLengthAllocatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j := openT(t, path)
	j.Append(Record{Kind: "job.accepted", Key: "a1", Payload: []byte("spec")})
	j.Close()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{1, 'k', 1, 'y'}
	torn = binary.BigEndian.AppendUint32(torn, 200<<20)
	if err := os.WriteFile(path, append(good, torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j2 := openT(t, path)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Open allocated %d bytes for a torn 200 MiB length", grew)
	}
	if recs := j2.Records(); len(recs) != 1 || recs[0].Key != "a1" {
		t.Fatalf("replayed %+v, want only a1", recs)
	}
	if got := j2.Stats().TruncatedBytes; got != int64(len(torn)) {
		t.Fatalf("TruncatedBytes = %d, want %d", got, len(torn))
	}
	if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, good) {
		t.Fatalf("file after repair differs from the intact prefix (err %v)", err)
	}
}

// TestCorruptMidRecordTruncates flips a byte inside the first record: replay
// must stop before it rather than serve corrupt bytes.
func TestCorruptMidRecordTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j := openT(t, path)
	j.Append(Record{Kind: "job.accepted", Key: "a1", Payload: []byte("payload-1")})
	j.Close()
	raw, _ := os.ReadFile(path)
	raw[headerLen+5] ^= 0x20 // inside the record kind
	os.WriteFile(path, raw, 0o644)
	j2 := openT(t, path)
	if recs := j2.Records(); len(recs) != 0 {
		t.Fatalf("corrupt record replayed: %+v", recs)
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	os.WriteFile(path, []byte("NOTJRNL0"), 0o644)
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTornHeaderReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	os.WriteFile(path, []byte("CSB"), 0o644) // crash mid-header
	j := openT(t, path)
	if recs := j.Records(); len(recs) != 0 {
		t.Fatalf("records = %+v", recs)
	}
	if err := j.Append(Record{Kind: "k", Key: "x"}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactKeepsFiltered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j := openT(t, path)
	j.Append(Record{Kind: "job.accepted", Key: "a1", Payload: []byte("s1")})
	j.Append(Record{Kind: "job.done", Key: "a1"})
	j.Append(Record{Kind: "job.accepted", Key: "a2", Payload: []byte("s2")})
	j.Append(Record{Kind: "task.done", Key: "t9", Payload: []byte("result")})
	j.Close()

	j2 := openT(t, path)
	before := j2.Stats().Bytes
	if err := j2.Compact(func(r Record) bool { return r.Key == "a2" || r.Kind == "task.done" }); err != nil {
		t.Fatal(err)
	}
	if after := j2.Stats().Bytes; after >= before {
		t.Fatalf("compact grew the file: %d -> %d", before, after)
	}
	// Appends after compaction extend the compacted file.
	if err := j2.Append(Record{Kind: "job.done", Key: "a2"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3 := openT(t, path)
	recs := j3.Records()
	if len(recs) != 3 || recs[0].Key != "a2" || recs[1].Key != "t9" || recs[2].Kind != "job.done" {
		t.Fatalf("post-compact records = %+v", recs)
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j := openT(t, path)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if err := j.Append(Record{Kind: "task.done", Key: "k", Payload: []byte{byte(i), byte(k)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	j.Close()
	j2 := openT(t, path)
	if got := len(j2.Records()); got != 160 {
		t.Fatalf("replayed %d records, want 160", got)
	}
}

func TestRecordLimits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j := openT(t, path)
	if err := j.Append(Record{Kind: "", Key: "x"}); err == nil {
		t.Error("empty kind accepted")
	}
	if err := j.Append(Record{Kind: string(bytes.Repeat([]byte{'k'}, 256)), Key: "x"}); err == nil {
		t.Error("oversized kind accepted")
	}
	if err := j.Append(Record{Kind: "k", Key: string(bytes.Repeat([]byte{'y'}, 256))}); err == nil {
		t.Error("oversized key accepted")
	}
}

// flakyFile is a journal file whose next write or sync can be made to fail;
// a failing write still lands its first half, like a disk filling up.
type flakyFile struct {
	*os.File
	failWrite, failSync, failTruncate bool
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.failWrite {
		f.failWrite = false
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errors.New("injected short write")
	}
	return f.File.Write(p)
}

func (f *flakyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

func (f *flakyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected truncate failure")
	}
	return f.File.Truncate(size)
}

// TestFailedAppendLeavesNoTornBytes: an append that fails mid-write or at its
// sync must not poison the records acknowledged after it. (The parent left
// the torn bytes in place, so the reopen below truncated C away.)
func TestFailedAppendLeavesNoTornBytes(t *testing.T) {
	for _, mode := range []string{"short write", "failed sync"} {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.wal")
			j := openT(t, path)
			flaky := &flakyFile{File: j.f.(*os.File)}
			j.f = flaky
			if err := j.Append(Record{Kind: "job.accepted", Key: "A"}); err != nil {
				t.Fatal(err)
			}
			flaky.failWrite, flaky.failSync = mode == "short write", mode == "failed sync"
			if err := j.Append(Record{Kind: "job.accepted", Key: "B", Payload: make([]byte, 64)}); err == nil {
				t.Fatal("injected failure did not surface")
			}
			if err := j.Append(Record{Kind: "job.accepted", Key: "C"}); err != nil {
				t.Fatalf("append after a rolled-back failure: %v", err)
			}
			if st := j.Stats(); st.Appended != 2 {
				t.Fatalf("Appended = %d, want 2", st.Appended)
			}
			j.Close()

			j2 := openT(t, path)
			var keys []string
			for _, rec := range j2.Records() {
				keys = append(keys, rec.Key)
			}
			if len(keys) != 2 || keys[0] != "A" || keys[1] != "C" {
				t.Fatalf("reopened journal holds %v, want [A C]", keys)
			}
			if st := j2.Stats(); st.TruncatedBytes != 0 {
				t.Fatalf("reopen truncated %d bytes; the failed append left a torn record", st.TruncatedBytes)
			}
		})
	}
}

// TestFailedRollbackFailsTheJournal: when the torn bytes cannot be removed,
// no later append may be acknowledged on top of them.
func TestFailedRollbackFailsTheJournal(t *testing.T) {
	j := openT(t, filepath.Join(t.TempDir(), "j.wal"))
	j.f = &flakyFile{File: j.f.(*os.File), failWrite: true, failTruncate: true}
	if err := j.Append(Record{Kind: "job.accepted", Key: "B"}); err == nil {
		t.Fatal("injected failure did not surface")
	}
	if err := j.Append(Record{Kind: "job.accepted", Key: "C"}); err == nil {
		t.Fatal("append acknowledged on a journal that could not roll back")
	}
}
