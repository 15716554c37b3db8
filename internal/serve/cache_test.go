package serve

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestCachePutGet(t *testing.T) {
	c, err := NewCache(1<<20, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", []byte("hello"))
	got, ok := c.Get("a")
	if !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 5 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheEvictsLRUWithinBudget(t *testing.T) {
	c, err := NewCache(100, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 40)) // 5*40 = 200 > 100
	}
	st := c.Stats()
	if st.Bytes > 100 {
		t.Fatalf("cache over budget: %d bytes", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	// The most recently inserted entry must survive.
	if _, ok := c.Get("k4"); !ok {
		t.Fatal("most recent entry evicted")
	}
	// The oldest must be gone (no disk tier).
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived a 2.5x-over-budget insert storm")
	}
}

func TestCacheGetRefreshesRecency(t *testing.T) {
	c, err := NewCache(100, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("old", make([]byte, 40))
	c.Put("mid", make([]byte, 40))
	c.Get("old")                   // touch: "mid" is now LRU
	c.Put("new", make([]byte, 40)) // forces one eviction
	if _, ok := c.Get("old"); !ok {
		t.Fatal("recently touched entry evicted")
	}
	if _, ok := c.Get("mid"); ok {
		t.Fatal("LRU entry survived")
	}
}

func TestCacheOversizedArtifactIsKept(t *testing.T) {
	c, err := NewCache(10, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("big", make([]byte, 1000))
	if _, ok := c.Get("big"); !ok {
		t.Fatal("artifact larger than the budget was dropped; it would rebuild on every request")
	}
}

func TestCacheDiskSpillAndPromotion(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(100, dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 80)
	c.Put("spilled", payload)
	c.Put("fresh", make([]byte, 80)) // evicts "spilled" to disk
	st := c.Stats()
	if st.Spills != 1 || st.DiskEntries != 1 {
		t.Fatalf("stats after spill = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "spilled.art")); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}
	// Disk hit: bytes come back and the artifact is promoted to memory,
	// which in turn evicts (and spills) "fresh" — the tiers swap contents.
	got, ok := c.Get("spilled")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("disk Get = %v, %v", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "spilled.art")); !os.IsNotExist(err) {
		t.Fatal("promotion left the old spill file behind")
	}
	if _, err := os.Stat(filepath.Join(dir, "fresh.art")); err != nil {
		t.Fatalf("evicted entry was not spilled: %v", err)
	}
	if st := c.Stats(); st.DiskEntries != 1 {
		t.Fatalf("stats after swap = %+v", st)
	}
}

func TestCacheDiskBudgetBounded(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(50, dir, 120)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 40))
	}
	st := c.Stats()
	if st.DiskBytes > 120 {
		t.Fatalf("disk tier over budget: %+v", st)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != st.DiskEntries {
		t.Fatalf("%d spill files on disk, index says %d", len(files), st.DiskEntries)
	}
}

func TestCacheLostSpillFileIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(50, dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", make([]byte, 40))
	c.Put("b", make([]byte, 40)) // spills "a"
	if err := os.Remove(filepath.Join(dir, "a.art")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get succeeded after the spill file was deleted")
	}
	if st := c.Stats(); st.DiskEntries != 0 {
		t.Fatalf("stale disk index entry survived: %+v", st)
	}
}

func TestNewCacheRemovesStaleSpills(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"aa.art", ".spill-123", "bb.art.quarantine", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewCache(100, dir, 0); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	// Spill and temp files of an earlier process go; quarantined files stay
	// inspectable and foreign files are not the cache's to delete.
	if want := []string{"bb.art.quarantine", "notes.txt"}; !slices.Equal(left, want) {
		t.Fatalf("spill dir after NewCache = %v, want %v", left, want)
	}
}

// heldSpill is a spill write stopped at the writeSpill seam until release
// is closed.
type heldSpill struct {
	id      string
	release chan struct{}
}

// holdSpills makes every spill write of c wait at the seam, announcing
// itself on the returned channel first.
func holdSpills(c *Cache) <-chan heldSpill {
	arrived := make(chan heldSpill)
	c.writeSpill = func(dir, path string, data []byte) error {
		h := heldSpill{id: strings.TrimSuffix(filepath.Base(path), ".art"), release: make(chan struct{})}
		arrived <- h
		<-h.release
		return writeSpillFile(dir, path, data)
	}
	return arrived
}

func TestCacheServesWhileSpillBlocked(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(100, dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	held := holdSpills(c)
	a, b := bytes.Repeat([]byte("a"), 60), bytes.Repeat([]byte("b"), 60)
	c.Put("a", a)
	putB := make(chan struct{})
	go func() {
		c.Put("b", b) // evicts "a"; its spill is held
		close(putB)
	}()
	ha := <-held
	if ha.id != "a" {
		t.Fatalf("held spill of %q, want a", ha.id)
	}

	// Calls on other ids return while the spill is held.
	if got, ok := c.Get("b"); !ok || !bytes.Equal(got, b) {
		t.Fatalf("Get(b) = %v", ok)
	}
	c.Put("c", make([]byte, 30)) // fits: evicts nothing
	if !c.Contains("b") || !c.Contains("c") || !c.Contains("a") {
		t.Fatal("Contains misses an artifact while a spill is held")
	}
	if st := c.Stats(); st.Entries != 2 || st.Spills != 0 || st.DiskEntries != 0 {
		t.Fatalf("stats while held = %+v", st)
	}

	// A Get of the artifact being spilled is served from memory and
	// promotes it, which evicts "b": that spill is the Get's to write.
	type got struct {
		data []byte
		ok   bool
	}
	getA := make(chan got, 1)
	go func() {
		data, ok := c.Get("a")
		getA <- got{data, ok}
	}()
	hb := <-held
	if hb.id != "b" {
		t.Fatalf("held spill of %q, want b", hb.id)
	}
	c.mu.Lock()
	_, inMem := c.mem["a"]
	_, spilling := c.spilling["a"]
	c.mu.Unlock()
	if !inMem || spilling {
		t.Fatalf("a after Get: in memory %v, spilling %v; want promoted", inMem, spilling)
	}

	// a's spill lands after its promotion: the file is removed, not indexed.
	close(ha.release)
	<-putB
	if _, err := os.Stat(filepath.Join(dir, "a.art")); !os.IsNotExist(err) {
		t.Fatalf("a.art after a's promotion: %v", err)
	}
	if st := c.Stats(); st.DiskEntries != 0 || st.Spills != 0 {
		t.Fatalf("stats after a's spill landed = %+v", st)
	}

	close(hb.release)
	if r := <-getA; !r.ok || !bytes.Equal(r.data, a) {
		t.Fatalf("Get(a) = %v", r.ok)
	}
	if _, err := os.Stat(filepath.Join(dir, "b.art")); err != nil {
		t.Fatalf("b was not spilled: %v", err)
	}
	if st := c.Stats(); st.DiskEntries != 1 || st.Spills != 1 {
		t.Fatalf("stats after b's spill landed = %+v", st)
	}
}

// TestCacheRandomScheduleKeepsInvariants drives seeded schedules of
// concurrent Put and Get whose spills are held at the seam and released in
// shuffled order. Between steps every caller has returned or is held, and
// the cache's books must balance against the directory.
func TestCacheRandomScheduleKeepsInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runCacheSchedule(t, seed) })
	}
}

func runCacheSchedule(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 38))
	dir := t.TempDir()
	c, err := NewCache(100, dir, 200)
	if err != nil {
		t.Fatal(err)
	}
	held := holdSpills(c)
	// Sizes 20..90 bytes, and one artifact over the memory budget.
	ids := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "big"}
	payload := func(id string) []byte {
		n := 120
		if id != "big" {
			n = 20 + 10*int(id[1]-'0')
		}
		return bytes.Repeat([]byte(id), n)[:n]
	}

	finished := make(chan struct{})
	running := 0 // callers neither returned nor held
	var blocked []heldSpill
	settle := func() {
		for running > 0 {
			select {
			case h := <-held:
				blocked = append(blocked, h)
			case <-finished:
			}
			running--
		}
	}
	release := func(i int) {
		h := blocked[i]
		blocked = slices.Delete(blocked, i, i+1)
		running++
		close(h.release)
	}
	for step := 0; step < 200; step++ {
		r := rng.IntN(10)
		id := ids[rng.IntN(len(ids))]
		running++
		switch {
		case r < 3 && len(blocked) > 0:
			running--
			release(rng.IntN(len(blocked)))
		case r < 6:
			go func() {
				c.Put(id, payload(id))
				finished <- struct{}{}
			}()
		default:
			go func() {
				if data, ok := c.Get(id); ok && !bytes.Equal(data, payload(id)) {
					t.Errorf("Get(%s) returned another artifact's bytes", id)
				}
				finished <- struct{}{}
			}()
		}
		settle()
		checkCacheBooks(t, c, dir)
		if t.Failed() {
			t.Fatalf("step %d", step)
		}
	}
	for len(blocked) > 0 {
		release(0)
		settle()
		checkCacheBooks(t, c, dir)
	}
	if len(c.spilling) != 0 || len(c.busy) != 0 {
		t.Fatalf("after the last spill: %d spilling, %d busy", len(c.spilling), len(c.busy))
	}
}

// checkCacheBooks asserts the cache's invariants while no caller runs.
func checkCacheBooks(t *testing.T, c *Cache, dir string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	tiers := map[string]int{}
	var memSum, diskSum int64
	for id, el := range c.mem {
		tiers[id]++
		memSum += int64(len(el.Value.(*memEntry).data))
	}
	for id := range c.spilling {
		tiers[id]++
	}
	var indexed []string
	for id, el := range c.disk {
		tiers[id]++
		diskSum += el.Value.(*diskEntry).size
		indexed = append(indexed, id+".art")
	}
	for id, n := range tiers {
		if n != 1 {
			t.Errorf("%s is in %d tiers", id, n)
		}
	}
	if memSum != c.memBytes || len(c.mem) != c.memLRU.Len() {
		t.Errorf("memory: %d bytes in %d entries, books say %d in %d", memSum, len(c.mem), c.memBytes, c.memLRU.Len())
	}
	if diskSum != c.diskBytes || len(c.disk) != c.diskLRU.Len() {
		t.Errorf("disk: %d bytes in %d entries, books say %d in %d", diskSum, len(c.disk), c.diskBytes, c.diskLRU.Len())
	}
	if c.memBytes > c.memBudget && len(c.mem) > 1 {
		t.Errorf("memory tier over budget: %d bytes in %d entries", c.memBytes, len(c.mem))
	}
	if c.diskBytes > c.diskBudget && len(c.disk) > 1 {
		t.Errorf("disk tier over budget: %d bytes in %d entries", c.diskBytes, len(c.disk))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	slices.Sort(indexed)
	if !slices.Equal(files, indexed) {
		t.Errorf("spill dir holds %v, disk index %v", files, indexed)
	}
}
