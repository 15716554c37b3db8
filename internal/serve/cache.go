package serve

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Cache is the content-addressed artifact store: a byte-budgeted in-memory
// LRU with an optional disk spill tier. Artifacts are keyed by Spec.ID, so a
// repeated identical job is served from here at wire speed instead of being
// regenerated.
//
// Eviction from memory spills the artifact to the disk tier when a spill
// directory is configured (its own byte budget, LRU again, oldest files
// deleted); a disk hit promotes the artifact back into memory. All methods
// are safe for concurrent use.
//
// No method hashes, reads or writes a file while it holds mu. Under the lock
// an eviction only moves the victim from the memory LRU into spilling, where
// Get and Contains still serve it from memory; the caller that caused the
// eviction writes the spill file after unlocking, then locks again to index
// it on the disk tier. Each id is in exactly one of mem, spilling and disk.
type Cache struct {
	mu sync.Mutex

	memBudget int64
	memBytes  int64
	mem       map[string]*list.Element // value.Value is *memEntry
	memLRU    *list.List               // front = most recently used

	// spilling holds memory evictees whose spill file is being written.
	spilling map[string]*memEntry
	// busy holds the ids whose spill file a caller is working on outside
	// the lock. File operations on that file decided meanwhile queue here,
	// and the owner runs them in order before it lets go, so a removal
	// decided earlier never deletes a file written later.
	busy map[string][]fileOp

	dir        string
	diskBudget int64
	diskBytes  int64
	disk       map[string]*list.Element // value.Value is *diskEntry
	diskLRU    *list.List

	// writeSpill writes one spill file; tests swap it to hold a spill in
	// flight.
	writeSpill func(dir, path string, data []byte) error

	hits, misses, evictions, spills int64
	quarantined, spillWriteFailures int64
}

type memEntry struct {
	id   string
	data []byte
}

type diskEntry struct {
	id   string
	size int64
}

// fileOp is one operation on an artifact's spill file, decided under the
// lock and run after it: write spill's bytes and index them, or, with spill
// nil, remove the file (move it aside when quarantine is set).
type fileOp struct {
	id         string
	spill      *memEntry
	quarantine bool
}

// DefaultCacheBytes is the in-memory artifact budget when none is given.
const DefaultCacheBytes = 256 << 20

// NewCache creates a cache with the given in-memory byte budget (0 means
// DefaultCacheBytes). dir enables the disk spill tier ("" disables it);
// diskBudget bounds it (0 means 4x the memory budget). The directory is
// created if missing, and the spill and temp files an earlier process left
// in it are deleted: spill files are never re-indexed, so they would only
// hold disk space outside the budget. Quarantined and foreign files stay.
func NewCache(memBudget int64, dir string, diskBudget int64) (*Cache, error) {
	if memBudget <= 0 {
		memBudget = DefaultCacheBytes
	}
	if diskBudget <= 0 {
		diskBudget = 4 * memBudget
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: creating spill dir: %w", err)
		}
		if err := removeStaleSpills(dir); err != nil {
			return nil, fmt.Errorf("cache: clearing spill dir: %w", err)
		}
	}
	return &Cache{
		memBudget:  memBudget,
		mem:        make(map[string]*list.Element),
		memLRU:     list.New(),
		spilling:   make(map[string]*memEntry),
		busy:       make(map[string][]fileOp),
		dir:        dir,
		diskBudget: diskBudget,
		disk:       make(map[string]*list.Element),
		diskLRU:    list.New(),
		writeSpill: writeSpillFile,
	}, nil
}

// removeStaleSpills deletes dir's spill files (<id>.art) and the temp files
// of spills cut short (.spill-*).
func removeStaleSpills(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && (strings.HasSuffix(name, ".art") || strings.HasPrefix(name, ".spill-")) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Get returns the artifact bytes for id. The returned slice is shared and
// must be treated as read-only. A disk-tier hit promotes the artifact back
// into memory.
func (c *Cache) Get(id string) ([]byte, bool) {
	c.mu.Lock()
	data, ops, ok := c.memGetLocked(id)
	if el, onDisk := c.disk[id]; !ok && onDisk {
		path := c.spillPath(id)
		c.mu.Unlock()
		var err error
		data, err = readSpillFile(path)
		c.mu.Lock()
		switch cur, still := c.disk[id]; {
		case err == nil:
			ops, ok = c.insertLocked(id, data, nil), true
		case still && cur == el:
			// Spill file lost or damaged out from under us: drop the index
			// entry and report a miss, which makes the daemon regenerate
			// the artifact. A corrupt or truncated file is quarantined —
			// moved aside under a .quarantine suffix so the bad bytes stay
			// inspectable but can never be served. Only the winning removal
			// quarantines: concurrent readers of the same damaged file all
			// fail verification, but exactly one moves it aside and counts
			// it — the rest just report a miss.
			corrupt := errors.Is(err, errSpillCorrupt)
			if corrupt {
				c.quarantined++
			}
			ops = c.dropDiskLocked(el, nil, corrupt)
		default:
			// Another caller moved the artifact while this one read it,
			// perhaps back into memory.
			data, ops, ok = c.memGetLocked(id)
		}
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	c.runOps(ops)
	return data, ok
}

// memGetLocked returns id's bytes when the artifact is in memory or being
// spilled. The latter is promoted back into the memory LRU, which may evict
// others: the caller runs the returned file operations after unlocking.
func (c *Cache) memGetLocked(id string) ([]byte, []fileOp, bool) {
	if el, ok := c.mem[id]; ok {
		c.memLRU.MoveToFront(el)
		return el.Value.(*memEntry).data, nil, true
	}
	if ent, ok := c.spilling[id]; ok {
		return ent.data, c.insertLocked(id, ent.data, nil), true
	}
	return nil, nil, false
}

// Contains reports whether id is in memory, being spilled or on disk,
// without touching recency or the hit/miss counters.
func (c *Cache) Contains(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, inMem := c.mem[id]
	_, inFlight := c.spilling[id]
	_, onDisk := c.disk[id]
	return inMem || inFlight || onDisk
}

// Put stores the artifact bytes under id, evicting least-recently-used
// artifacts (spilling them to disk when enabled) to stay within budget. The
// cache takes ownership of data.
func (c *Cache) Put(id string, data []byte) {
	c.runOps(c.insert(id, data))
}

// insert is Put's locked half: the artifact is in memory, and servable,
// when it returns. The caller passes the result to runOps.
func (c *Cache) insert(id string, data []byte) []fileOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertLocked(id, data, nil)
}

// insertLocked adds or refreshes a memory entry and rebalances budgets,
// appending the file operations that needs to ops.
func (c *Cache) insertLocked(id string, data []byte, ops []fileOp) []fileOp {
	if el, ok := c.mem[id]; ok {
		ent := el.Value.(*memEntry)
		c.memBytes += int64(len(data)) - int64(len(ent.data))
		ent.data = data
		c.memLRU.MoveToFront(el)
	} else {
		c.mem[id] = c.memLRU.PushFront(&memEntry{id: id, data: data})
		c.memBytes += int64(len(data))
		// Back in memory, the artifact leaves the other tiers: a spill in
		// flight removes its file when it lands, a spilled file goes now.
		delete(c.spilling, id)
		if el, ok := c.disk[id]; ok {
			ops = c.dropDiskLocked(el, ops, false)
		}
	}
	for c.memBytes > c.memBudget && c.memLRU.Len() > 1 {
		ops = c.evictOldestLocked(ops)
	}
	// A single artifact larger than the whole budget is kept anyway (the
	// alternative is thrashing: rebuild on every request).
	return ops
}

// evictOldestLocked drops the LRU memory entry, moving it to spilling when
// the spill tier is enabled and the artifact fits its budget.
func (c *Cache) evictOldestLocked(ops []fileOp) []fileOp {
	ent := c.memLRU.Remove(c.memLRU.Back()).(*memEntry)
	delete(c.mem, ent.id)
	c.memBytes -= int64(len(ent.data))
	c.evictions++
	if c.dir == "" || int64(len(ent.data)) > c.diskBudget {
		return ops
	}
	c.spilling[ent.id] = ent
	return c.scheduleLocked(ops, fileOp{id: ent.id, spill: ent})
}

// dropDiskLocked removes a disk-tier entry from the index and schedules the
// removal, or quarantine, of its file.
func (c *Cache) dropDiskLocked(el *list.Element, ops []fileOp, quarantine bool) []fileOp {
	ent := c.diskLRU.Remove(el).(*diskEntry)
	delete(c.disk, ent.id)
	c.diskBytes -= ent.size
	return c.scheduleLocked(ops, fileOp{id: ent.id, quarantine: quarantine})
}

// scheduleLocked hands op to the caller, or queues it behind the caller
// already working on the same file.
func (c *Cache) scheduleLocked(ops []fileOp, op fileOp) []fileOp {
	if q, busy := c.busy[op.id]; busy {
		c.busy[op.id] = append(q, op)
		return ops
	}
	c.busy[op.id] = nil
	return append(ops, op)
}

// runOps performs file operations a locked section scheduled, each followed
// by whatever queued on its file meanwhile. It must be called without mu.
func (c *Cache) runOps(ops []fileOp) {
	for _, op := range ops {
		for {
			path := c.spillPath(op.id)
			var err error
			switch {
			case op.spill != nil:
				err = c.writeSpill(c.dir, path, op.spill.data)
			case op.quarantine:
				os.Rename(path, path+".quarantine")
			default:
				os.Remove(path)
			}
			c.mu.Lock()
			var dropped []fileOp
			if op.spill != nil {
				dropped = c.landLocked(op, err)
			}
			q := c.busy[op.id]
			next := len(q) > 0
			if next {
				op, c.busy[op.id] = q[0], q[1:]
			} else {
				delete(c.busy, op.id)
			}
			c.mu.Unlock()
			// Removals first: they never wait on a write.
			c.runOps(dropped)
			if !next {
				break
			}
		}
	}
}

// landLocked indexes a written spill file on the disk tier and returns the
// removals of the files the disk budget then drops. If the artifact went
// back into memory meanwhile, the file is removed instead, next, by the
// caller that wrote it.
func (c *Cache) landLocked(op fileOp, err error) []fileOp {
	if c.spilling[op.id] != op.spill {
		if err == nil {
			c.busy[op.id] = append([]fileOp{{id: op.id}}, c.busy[op.id]...)
		}
		return nil
	}
	delete(c.spilling, op.id)
	if err != nil {
		c.spillWriteFailures++
		return nil // disk full or unwritable: degrade to plain eviction
	}
	c.spills++
	size := int64(len(op.spill.data))
	c.disk[op.id] = c.diskLRU.PushFront(&diskEntry{id: op.id, size: size})
	c.diskBytes += size
	var ops []fileOp
	for c.diskBytes > c.diskBudget && c.diskLRU.Len() > 1 {
		ops = c.dropDiskLocked(c.diskLRU.Back(), ops, false)
	}
	return ops
}

// spillPath returns the spill file path of an artifact id (ids are hex, so
// they are filesystem-safe).
func (c *Cache) spillPath(id string) string {
	return filepath.Join(c.dir, id+".art")
}

// Spill file framing: artifacts on disk carry a magic, the payload length
// and a CRC-32 (IEEE, as the CSBJ1 journal uses), so a read can distinguish
// a healthy file from a truncated or bit-rotted one instead of serving
// whatever bytes happen to be there. The frame guards against torn writes
// and rot of files this process wrote, nothing more: spill files are never
// re-indexed across restarts, and a checksum without a key would
// authenticate nothing against anyone who can write the directory.
//
//	offset  size  field
//	0       4     magic "CSB1"
//	4       8     payload length, big endian
//	12      4     CRC-32 (IEEE) of the payload, big endian
//	16      n     payload
var spillMagic = [4]byte{'C', 'S', 'B', '1'}

const spillHeaderLen = 4 + 8 + 4

// errSpillCorrupt marks a spill file whose contents cannot be trusted:
// wrong magic, short read, or checksum mismatch. Callers quarantine on it.
var errSpillCorrupt = errors.New("serve: spill file corrupt")

// writeSpillFile persists framed artifact bytes atomically: the file is
// assembled in a temp file in the same directory and renamed into place, so
// a crash mid-write can never leave a torn file under the artifact's name.
func writeSpillFile(dir, path string, data []byte) error {
	var hdr [spillHeaderLen]byte
	copy(hdr[:4], spillMagic[:])
	binary.BigEndian.PutUint64(hdr[4:12], uint64(len(data)))
	binary.BigEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(data))

	tmp, err := os.CreateTemp(dir, ".spill-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(hdr[:])
	if err == nil {
		_, err = tmp.Write(data)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// readSpillFile loads and verifies a framed spill file. It returns an error
// wrapping fs.ErrNotExist when the file is gone, or errSpillCorrupt when the
// contents fail decodeSpill.
func readSpillFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := decodeSpill(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return payload, nil
}

// decodeSpill verifies a framed spill file's bytes and returns its payload,
// a subslice of raw. Any framing fault — bad magic, truncation, trailing
// garbage, checksum mismatch — is an error wrapping errSpillCorrupt.
func decodeSpill(raw []byte) ([]byte, error) {
	if len(raw) < spillHeaderLen || !bytes.Equal(raw[:4], spillMagic[:]) {
		return nil, fmt.Errorf("%w: bad header", errSpillCorrupt)
	}
	want := binary.BigEndian.Uint64(raw[4:12])
	payload := raw[spillHeaderLen:]
	if uint64(len(payload)) != want {
		return nil, fmt.Errorf("%w: payload %d bytes, header says %d", errSpillCorrupt, len(payload), want)
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(raw[12:spillHeaderLen]) {
		return nil, fmt.Errorf("%w: checksum mismatch", errSpillCorrupt)
	}
	return payload, nil
}

// DiskHealthy reports whether the spill tier is usable: disabled counts as
// healthy (nothing to go wrong), otherwise the spill directory must exist.
// The readiness probe uses this to take a daemon with a dead artifact disk
// out of rotation.
func (c *Cache) DiskHealthy() bool {
	if c.dir == "" {
		return true
	}
	info, err := os.Stat(c.dir)
	if err != nil || !info.IsDir() {
		return false
	}
	return true
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Entries     int
	Bytes       int64
	DiskEntries int
	DiskBytes   int64
	Hits        int64
	Misses      int64
	Evictions   int64
	Spills      int64
	// Quarantined counts spill files that failed verification on read and
	// were moved aside (the artifact was then regenerated).
	Quarantined int64
	// SpillErrors counts evictions that could not be spilled to disk
	// (write or rename failure); the artifact degraded to plain eviction.
	SpillErrors int64
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:     c.memLRU.Len(),
		Bytes:       c.memBytes,
		DiskEntries: c.diskLRU.Len(),
		DiskBytes:   c.diskBytes,
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Spills:      c.spills,
		Quarantined: c.quarantined,
		SpillErrors: c.spillWriteFailures,
	}
}
