// Package journal is the crash-safety substrate of csbd: an append-only,
// CRC-checksummed write-ahead log of small typed records. The daemon,
// standalone or coordinator, journals job lifecycle events
// (accepted/done/failed/canceled), so a process killed mid-build can replay
// the log on restart and re-enqueue every incomplete job; content addressing
// rebuilds it to byte-identical artifacts instead of losing work.
//
// The format (CSBJ1) follows the repo's wire conventions: versioned magic,
// length-framed big-endian records, per-record CRC32 (IEEE), and no
// pre-allocation from untrusted counts.
//
//	file header (8 bytes): magic "CSBJ1" + 3 zero bytes
//
//	record:
//	  [0]     kind length, uint8
//	  [1:..]  kind (UTF-8, e.g. "job.accepted", "job.done")
//	  [..]    key length, uint8
//	  [..]    key (e.g. an artifact id)
//	  [..+4]  payload length, uint32 BE
//	  [..]    payload
//	  [..+4]  CRC32 (IEEE) of everything above, uint32 BE
//
// A crash mid-append leaves a torn record at the tail; Open detects it via
// the checksum (or a short read), truncates the file back to the last intact
// record and keeps going. Torn tails are expected — they are the crash the
// journal exists to survive — so truncation is silent recovery, not an error.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Format constants.
const (
	// Magic opens every CSBJ1 journal file (padded to 8 bytes on disk).
	Magic = "CSBJ1"
	// headerLen is the on-disk file header length.
	headerLen = 8
	// maxPayload bounds one record's payload. Today's records are job specs
	// of a few hundred bytes, but logs written by earlier coordinators also
	// hold stage results of up to this size. The bound stays so Open still
	// reads them: a lower one would treat such a record as a torn tail and
	// truncate the job records after it along with it.
	maxPayload = 256 << 20
)

// ErrCorrupt tags journal damage that truncation cannot repair: a bad file
// header. Torn or corrupt records at the tail are repaired silently instead.
var ErrCorrupt = errors.New("journal: corrupt")

// Record is one journaled event. Kind namespaces the event ("job.accepted",
// "job.done"), Key identifies its subject (an artifact id) and Payload
// carries kind-specific bytes (a job spec).
type Record struct {
	Kind    string
	Key     string
	Payload []byte
}

// Stats is a point-in-time snapshot of one journal's counters.
type Stats struct {
	// Replayed is how many intact records Open recovered.
	Replayed int
	// TruncatedBytes is how many torn tail bytes Open discarded.
	TruncatedBytes int64
	// Appended counts records written since Open.
	Appended int64
	// Bytes is the current file size.
	Bytes int64
}

// file is what the journal needs of *os.File; a test substitutes one whose
// writes fail.
type file interface {
	io.ReadWriteSeeker
	Stat() (os.FileInfo, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Journal is an open write-ahead log. All methods are safe for concurrent
// use. Appends are synced to disk before they return, so an acknowledged
// record survives kill -9.
type Journal struct {
	mu   sync.Mutex
	f    file
	path string
	size int64 // end of the last intact record; the file holds nothing beyond it
	bad  error // set when a failed append could not be rolled back; sticky

	records   []Record // replayed at Open, in log order
	replayed  int
	truncated int64
	appended  int64
}

// Open opens (creating if missing) the journal at path, replays every intact
// record, repairs a torn tail by truncation, and leaves the file positioned
// for appends.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	j := &Journal{f: f, path: path}
	if err := j.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// replay validates the header, loads intact records and truncates a torn
// tail. Called once from Open.
func (j *Journal) replay() error {
	info, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("journal: stat: %w", err)
	}
	if info.Size() == 0 {
		var hdr [headerLen]byte
		copy(hdr[:], Magic)
		if _, err := j.f.Write(hdr[:]); err != nil {
			return fmt.Errorf("journal: writing header: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: syncing header: %w", err)
		}
		j.size = headerLen
		return nil
	}
	if info.Size() < headerLen {
		// Crash while writing the 8-byte header of a brand-new journal: there
		// were no records yet, so rewrite it and carry on.
		return j.reset()
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(j.f, hdr[:]); err != nil {
		return fmt.Errorf("journal: reading header: %w", err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return fmt.Errorf("%w: bad magic %q in %s", ErrCorrupt, hdr[:len(Magic)], filepath.Base(j.path))
	}
	good := int64(headerLen)
	for {
		rec, n, err := readRecord(j.f, info.Size()-good)
		if err != nil {
			// Torn or corrupt tail: truncate back to the last intact record.
			// io.EOF with n==0 is the clean end of the log.
			if err == io.EOF && n == 0 {
				break
			}
			j.truncated = info.Size() - good
			if err := j.f.Truncate(good); err != nil {
				return fmt.Errorf("journal: truncating torn tail: %w", err)
			}
			if err := j.f.Sync(); err != nil {
				return fmt.Errorf("journal: syncing truncation: %w", err)
			}
			break
		}
		good += n
		j.records = append(j.records, rec)
	}
	j.replayed = len(j.records)
	j.size = good
	if _, err := j.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("journal: seeking to tail: %w", err)
	}
	return nil
}

// reset rewrites an empty journal header after a header-torn crash.
func (j *Journal) reset() error {
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: resetting: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var hdr [headerLen]byte
	copy(hdr[:], Magic)
	if _, err := j.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("journal: rewriting header: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.size = headerLen
	return nil
}

// readRecord decodes one record from r, which has remaining bytes left,
// returning how many bytes it consumed. Any malformed or short read returns
// an error; n then reports how far the reader got (nonzero means a torn
// record). A payload length beyond remaining is a torn tail, reported before
// anything is allocated for it.
func readRecord(r io.Reader, remaining int64) (Record, int64, error) {
	var kl [1]byte
	n, err := io.ReadFull(r, kl[:])
	if err != nil {
		return Record{}, int64(n), err
	}
	read := int64(n)
	kind := make([]byte, kl[0])
	n, err = io.ReadFull(r, kind)
	read += int64(n)
	if err != nil {
		return Record{}, read, err
	}
	var yl [1]byte
	n, err = io.ReadFull(r, yl[:])
	read += int64(n)
	if err != nil {
		return Record{}, read, err
	}
	key := make([]byte, yl[0])
	n, err = io.ReadFull(r, key)
	read += int64(n)
	if err != nil {
		return Record{}, read, err
	}
	var pl [4]byte
	n, err = io.ReadFull(r, pl[:])
	read += int64(n)
	if err != nil {
		return Record{}, read, err
	}
	plen := binary.BigEndian.Uint32(pl[:])
	if plen > maxPayload {
		return Record{}, read, fmt.Errorf("%w: payload %d exceeds %d bytes", ErrCorrupt, plen, maxPayload)
	}
	if int64(plen) > remaining-read {
		return Record{}, read, io.ErrUnexpectedEOF
	}
	payload := make([]byte, plen)
	n, err = io.ReadFull(r, payload)
	read += int64(n)
	if err != nil {
		return Record{}, read, err
	}
	var sum [4]byte
	n, err = io.ReadFull(r, sum[:])
	read += int64(n)
	if err != nil {
		return Record{}, read, err
	}
	crc := crc32.NewIEEE()
	crc.Write(kl[:])
	crc.Write(kind)
	crc.Write(yl[:])
	crc.Write(key)
	crc.Write(pl[:])
	crc.Write(payload)
	if got := binary.BigEndian.Uint32(sum[:]); got != crc.Sum32() {
		return Record{}, read, fmt.Errorf("%w: record checksum %08x, want %08x", ErrCorrupt, got, crc.Sum32())
	}
	return Record{Kind: string(kind), Key: string(key), Payload: payload}, read, nil
}

// encodeRecord renders one record in its on-disk framing.
func encodeRecord(rec Record) ([]byte, error) {
	if len(rec.Kind) == 0 || len(rec.Kind) > 255 {
		return nil, fmt.Errorf("journal: bad record kind %q", rec.Kind)
	}
	if len(rec.Key) > 255 {
		return nil, fmt.Errorf("journal: record key %q too long", rec.Key)
	}
	if len(rec.Payload) > maxPayload {
		return nil, fmt.Errorf("journal: record payload %d exceeds %d bytes", len(rec.Payload), maxPayload)
	}
	b := make([]byte, 0, 1+len(rec.Kind)+1+len(rec.Key)+4+len(rec.Payload)+4)
	b = append(b, byte(len(rec.Kind)))
	b = append(b, rec.Kind...)
	b = append(b, byte(len(rec.Key)))
	b = append(b, rec.Key...)
	var pl [4]byte
	binary.BigEndian.PutUint32(pl[:], uint32(len(rec.Payload)))
	b = append(b, pl[:]...)
	b = append(b, rec.Payload...)
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(b))
	b = append(b, sum[:]...)
	return b, nil
}

// Append durably writes one record: it is on disk (fsync'd) when Append
// returns nil. A failed append leaves no bytes behind — a short write or a
// failed sync is rolled back to the last intact record, because the next Open
// truncates at the first torn record and would take every later, acknowledged
// record with it. If the rollback fails too the journal is marked failed and
// every later Append returns that error.
func (j *Journal) Append(rec Record) error {
	b, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if j.bad != nil {
		return j.bad
	}
	_, err = j.f.Write(b)
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		err = fmt.Errorf("journal: append: %w", err)
		if rerr := j.rollback(); rerr != nil {
			j.bad = fmt.Errorf("journal: failed: %w (rolling back after: %v)", rerr, err)
		}
		return err
	}
	j.size += int64(len(b))
	j.appended++
	return nil
}

// rollback discards whatever a failed append left beyond the last intact
// record and repositions for the next append, whose own sync makes the
// truncation durable before anything after it is acknowledged.
func (j *Journal) rollback() error {
	if err := j.f.Truncate(j.size); err != nil {
		return err
	}
	_, err := j.f.Seek(j.size, io.SeekStart)
	return err
}

// Records returns the records replayed at Open, in log order. The slice is
// shared; treat it as read-only. Records appended after Open are not
// included — replay state is an Open-time snapshot by design.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Compact rewrites the journal keeping only the replayed records that pass
// keep, dropping everything else (completed jobs, kinds no longer written).
// The rewrite is atomic: a temp file in the same directory is renamed over
// the journal, so a crash mid-compaction leaves the old intact log in place.
// Records appended after Open survive only if they were re-appended after
// Compact returns; call it immediately after Open, before new appends.
func (j *Journal) Compact(keep func(Record) bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), ".journal-*")
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var hdr [headerLen]byte
	copy(hdr[:], Magic)
	if _, err := tmp.Write(hdr[:]); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	size := int64(headerLen)
	kept := j.records[:0:0]
	for _, rec := range j.records {
		if !keep(rec) {
			continue
		}
		b, err := encodeRecord(rec)
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(b); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: compact: %w", err)
		}
		size += int64(len(b))
		kept = append(kept, rec)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: compact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("journal: compact rename: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopening after compact: %w", err)
	}
	j.f.Close()
	j.f = f
	j.size = size
	j.records = kept
	return nil
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Replayed:       j.replayed,
		TruncatedBytes: j.truncated,
		Appended:       j.appended,
		Bytes:          j.size,
	}
}

// Close syncs and closes the file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
