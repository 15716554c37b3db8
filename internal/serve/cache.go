package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
type Cache struct {
	mu sync.Mutex

	memBudget int64
	memBytes  int64
	mem       map[string]*list.Element // value.Value is *memEntry
	memLRU    *list.List               // front = most recently used

	dir        string
	diskBudget int64
	diskBytes  int64
	disk       map[string]*list.Element // value.Value is *diskEntry
	diskLRU    *list.List

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

// DefaultCacheBytes is the in-memory artifact budget when none is given.
const DefaultCacheBytes = 256 << 20

// NewCache creates a cache with the given in-memory byte budget (0 means
// DefaultCacheBytes). dir enables the disk spill tier ("" disables it);
// diskBudget bounds it (0 means 4x the memory budget). The directory is
// created if missing.
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
	}
	return &Cache{
		memBudget: memBudget,
		mem:       make(map[string]*list.Element),
		memLRU:    list.New(),
		dir:       dir,
		diskBudget: func() int64 {
			if dir == "" {
				return 0
			}
			return diskBudget
		}(),
		disk:    make(map[string]*list.Element),
		diskLRU: list.New(),
	}, nil
}

// Get returns the artifact bytes for id. The returned slice is shared and
// must be treated as read-only. A disk-tier hit promotes the artifact back
// into memory.
func (c *Cache) Get(id string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.mem[id]; ok {
		c.memLRU.MoveToFront(el)
		data := el.Value.(*memEntry).data
		c.hits++
		c.mu.Unlock()
		return data, true
	}
	el, ok := c.disk[id]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	path := c.spillPath(id)
	c.mu.Unlock()
	data, err := readSpillFile(path)
	if err != nil {
		// Spill file lost or damaged out from under us. A missing file
		// (operator cleanup) just drops the index entry; a corrupt or
		// truncated one is additionally quarantined — moved aside under a
		// .quarantine suffix so the bad bytes stay inspectable but can never
		// be served — and the artifact is reported as a miss, which makes
		// the daemon regenerate it.
		c.mu.Lock()
		if cur, still := c.disk[id]; still && cur == el {
			c.removeDiskLocked(el, false)
			// Quarantine only on the winning removal: concurrent readers of
			// the same damaged file all fail verification, but exactly one
			// moves it aside and counts it — the rest just report a miss.
			if errors.Is(err, errSpillCorrupt) {
				c.quarantined++
				os.Rename(path, path+".quarantine")
			}
		}
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Lock()
	c.hits++
	c.insertMemLocked(id, data)
	c.mu.Unlock()
	return data, true
}

// Contains reports whether id is present in either tier, without touching
// recency or the hit/miss counters.
func (c *Cache) Contains(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mem[id]; ok {
		return true
	}
	_, ok := c.disk[id]
	return ok
}

// Put stores the artifact bytes under id, evicting least-recently-used
// artifacts (spilling them to disk when enabled) to stay within budget. The
// cache takes ownership of data.
func (c *Cache) Put(id string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertMemLocked(id, data)
}

// insertMemLocked adds or refreshes a memory entry and rebalances budgets.
func (c *Cache) insertMemLocked(id string, data []byte) {
	if el, ok := c.mem[id]; ok {
		ent := el.Value.(*memEntry)
		c.memBytes += int64(len(data)) - int64(len(ent.data))
		ent.data = data
		c.memLRU.MoveToFront(el)
	} else {
		el := c.memLRU.PushFront(&memEntry{id: id, data: data})
		c.mem[id] = el
		c.memBytes += int64(len(data))
	}
	// An artifact promoted from disk should not also occupy spill space.
	if el, ok := c.disk[id]; ok {
		c.removeDiskLocked(el, true)
	}
	for c.memBytes > c.memBudget && c.memLRU.Len() > 1 {
		c.evictOldestLocked()
	}
	// A single artifact larger than the whole budget is kept anyway (the
	// alternative is thrashing: rebuild on every request).
}

// evictOldestLocked drops the LRU memory entry, spilling it to disk first
// when the spill tier is enabled.
func (c *Cache) evictOldestLocked() {
	el := c.memLRU.Back()
	if el == nil {
		return
	}
	ent := el.Value.(*memEntry)
	c.memLRU.Remove(el)
	delete(c.mem, ent.id)
	c.memBytes -= int64(len(ent.data))
	c.evictions++
	if c.dir == "" || int64(len(ent.data)) > c.diskBudget {
		return
	}
	if err := writeSpillFile(c.dir, c.spillPath(ent.id), ent.data); err != nil {
		c.spillWriteFailures++
		return // disk full or unwritable: degrade to plain eviction
	}
	c.spills++
	dl := c.diskLRU.PushFront(&diskEntry{id: ent.id, size: int64(len(ent.data))})
	c.disk[ent.id] = dl
	c.diskBytes += int64(len(ent.data))
	for c.diskBytes > c.diskBudget && c.diskLRU.Len() > 1 {
		c.removeDiskLocked(c.diskLRU.Back(), true)
	}
}

// removeDiskLocked drops a disk-tier entry; unlink removes the spill file.
func (c *Cache) removeDiskLocked(el *list.Element, unlink bool) {
	ent := el.Value.(*diskEntry)
	c.diskLRU.Remove(el)
	delete(c.disk, ent.id)
	c.diskBytes -= ent.size
	if unlink {
		os.Remove(c.spillPath(ent.id))
	}
}

// spillPath returns the spill file path of an artifact id (ids are hex, so
// they are filesystem-safe).
func (c *Cache) spillPath(id string) string {
	return filepath.Join(c.dir, id+".art")
}

// Spill file framing: artifacts on disk carry a magic, the payload length
// and a SHA-256 digest, so a read can distinguish a healthy file from a
// truncated or bit-rotted one instead of serving whatever bytes happen to
// be there.
//
//	offset  size  field
//	0       4     magic "CSB1"
//	4       8     payload length, big endian
//	12      32    SHA-256 of the payload
//	44      n     payload
var spillMagic = [4]byte{'C', 'S', 'B', '1'}

const spillHeaderLen = 4 + 8 + sha256.Size

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
	sum := sha256.Sum256(data)
	copy(hdr[12:], sum[:])

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
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], raw[12:spillHeaderLen]) {
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
