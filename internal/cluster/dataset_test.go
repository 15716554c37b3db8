package cluster

import (
	"context"
	"errors"
	"iter"
	"sort"
	"testing"
	"testing/quick"

	"csb/internal/stats"
)

func testCluster() *Cluster {
	return MustNew(Config{Nodes: 2, CoresPerNode: 2, DefaultPartitions: 8})
}

// Map applies f to every element: the plain one-stage operator the engine
// tests build pipelines from.
func Map[T, U any](in *Dataset[T], f func(T) U) *Dataset[U] {
	parts := make([][]U, len(in.parts))
	in.c.runStage(inSpec("map", in, parts), len(in.parts), func(i int) {
		src := in.parts[i]
		dst := make([]U, len(src))
		for j, v := range src {
			dst[j] = f(v)
		}
		parts[i] = dst
	})
	return newDataset(in.c, parts)
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizePreservesAllElements(t *testing.T) {
	c := testCluster()
	d := Parallelize(c, seq(100), 7)
	if d.NumPartitions() != 7 {
		t.Fatalf("partitions = %d, want 7", d.NumPartitions())
	}
	if d.Count() != 100 {
		t.Fatalf("Count = %d, want 100", d.Count())
	}
	got := Collect(d)
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("element %d = %d", i, v)
		}
	}
}

func TestParallelizeEdgeCases(t *testing.T) {
	c := testCluster()
	if d := Parallelize(c, []int{}, 4); d.Count() != 0 || d.NumPartitions() != 0 {
		t.Fatalf("empty parallelize: %d/%d", d.Count(), d.NumPartitions())
	}
	// More partitions than elements: clamp.
	d := Parallelize(c, seq(3), 10)
	if d.NumPartitions() != 3 {
		t.Fatalf("partitions = %d, want clamped to 3", d.NumPartitions())
	}
	// Default partitions.
	if d := Parallelize(c, seq(100), 0); d.NumPartitions() != 8 {
		t.Fatalf("default partitions = %d, want 8", d.NumPartitions())
	}
}

// TestMapPartitionsSeesEveryPartitionOnce: the per-partition map, run with
// no executor, calls the local closure once per partition with that
// partition's elements.
func TestMapPartitionsSeesEveryPartitionOnce(t *testing.T) {
	c := testCluster()
	d := Parallelize(c, seq(20), 4)
	counts := Collect(MapPartitionsRemotable(d, "test.local", func(part int, xs []int) []int {
		return []int{len(xs)}
	}, nil, nil))
	var total int
	for _, n := range counts {
		total += n
	}
	if len(counts) != 4 || total != 20 {
		t.Fatalf("MapPartitions counts = %v", counts)
	}
}

// TestMapBlocksIndependentOfPartitioning: a drawing stage's output is a
// function of the element sequence and the seed alone. Its tasks are runs
// of whole blocks whose streams continue across partition boundaries, so
// any partitioning of the input and any partition count of the cluster give
// the same elements.
func TestMapBlocksIndependentOfPartitioning(t *testing.T) {
	const n = 5*blockSize + 123
	draw := func(c *Cluster, parts int) []int64 {
		in := Parallelize(c, seq(n), parts)
		out := MapBlocks(in, "mapBlocks", 7, func(k int, runs iter.Seq[Run[int]]) []int64 {
			var dst []int64
			for r := range runs {
				for i, x := range r.Xs {
					if int64(x) != r.At+int64(i) {
						t.Errorf("run at %d holds %d at %d", r.At, x, i)
					}
					// A variable draw count, as IntN's rejection makes it.
					for range x % 3 {
						dst = append(dst, int64(r.RNG.IntN(1000)))
					}
				}
			}
			return dst
		})
		if tasks := out.NumPartitions(); tasks > c.Config().DefaultPartitions || tasks > 6 {
			t.Errorf("%d blocks ran as %d tasks at %d default partitions", 6, tasks, c.Config().DefaultPartitions)
		}
		return Collect(out)
	}
	want := draw(MustNew(Config{}), 1)
	for _, parts := range []int{2, 3, 7, 16, 200} {
		for _, cfg := range []Config{{}, {Nodes: 4, CoresPerNode: 4, DefaultPartitions: 3, MaxParallel: 16}} {
			got := draw(MustNew(cfg), parts)
			if len(got) != len(want) {
				t.Fatalf("parts=%d: %d draws, want %d", parts, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("parts=%d: draw %d = %d, want %d", parts, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSampleFractionAndDeterminism(t *testing.T) {
	c := testCluster()
	d := Parallelize(c, seq(10000), 8)
	s1 := Sample(d, 0.3, 99)
	s2 := Sample(d, 0.3, 99)
	if s1.Count() != s2.Count() {
		t.Fatalf("sample not deterministic: %d vs %d", s1.Count(), s2.Count())
	}
	n := s1.Count()
	if n < 2500 || n > 3500 {
		t.Fatalf("sample fraction off: %d of 10000 at 0.3", n)
	}
	if Sample(d, 0, 1).Count() != 0 {
		t.Fatal("fraction 0 kept elements")
	}
	if Sample(d, 1, 1).Count() != 10000 {
		t.Fatal("fraction 1 dropped elements")
	}
	if Sample(d, -0.5, 1).Count() != 0 {
		t.Fatal("negative fraction kept elements")
	}
}

func TestDistinct(t *testing.T) {
	c := testCluster()
	data := append(seq(50), seq(50)...) // every value twice
	d := Parallelize(c, data, 6)
	u := Distinct(d, func(x int) int { return x }, func(k int) uint64 { return uint64(k) * 0x9e3779b9 })
	if u.Count() != 50 {
		t.Fatalf("Distinct count = %d, want 50", u.Count())
	}
	got := Collect(u)
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("Distinct lost/mangled values at %d: %d", i, v)
		}
	}
	// Distinct must charge serial time (the shuffle model).
	if c.Metrics().SerialTime <= 0 {
		t.Fatal("Distinct recorded no serial time")
	}
}

func TestUnion(t *testing.T) {
	c := testCluster()
	a := Parallelize(c, seq(10), 2)
	b := Parallelize(c, seq(5), 1)
	u := Union(a, b)
	if u.Count() != 15 || u.NumPartitions() != 3 {
		t.Fatalf("Union: %d elements %d partitions", u.Count(), u.NumPartitions())
	}
}

// generate runs GenerateRemotable on a cluster with no executor, where the
// payload and decode halves are never called.
func generate(c *Cluster, n int64, seed uint64, gen func(rng *stats.RNG, emit func(int64), count int64)) *Dataset[int64] {
	return GenerateRemotable(c, n, seed, "test.local", gen, nil, nil)
}

func TestGenerate(t *testing.T) {
	c := testCluster()
	d := generate(c, 1000, 42, func(rng *stats.RNG, emit func(int64), count int64) {
		for i := int64(0); i < count; i++ {
			emit(int64(rng.IntN(100)))
		}
	})
	if d.Count() != 1000 {
		t.Fatalf("Generate count = %d, want 1000", d.Count())
	}
	// Deterministic under same seed.
	d2 := generate(c, 1000, 42, func(rng *stats.RNG, emit func(int64), count int64) {
		for i := int64(0); i < count; i++ {
			emit(int64(rng.IntN(100)))
		}
	})
	a, b := Collect(d), Collect(d2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Generate not deterministic at %d", i)
		}
	}
	// Zero elements.
	z := generate(c, 0, 1, func(rng *stats.RNG, emit func(int64), count int64) {})
	if z.Count() != 0 {
		t.Fatal("Generate(0) nonzero")
	}
	// Fewer elements than partitions.
	f := generate(c, 3, 1, func(rng *stats.RNG, emit func(int64), count int64) {
		for i := int64(0); i < count; i++ {
			emit(int64(i))
		}
	})
	if f.Count() != 3 {
		t.Fatalf("Generate(3) count = %d", f.Count())
	}
}

func TestDeriveRNGDecorrelated(t *testing.T) {
	a := DeriveRNG(1, 0)
	b := DeriveRNG(1, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.IntN(1000) == b.IntN(1000) {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("streams correlated: %d/100 equal draws", same)
	}
}

// Property: Map then Collect equals the sequential map, in order, under any
// partitioning.
func TestDatasetAlgebra(t *testing.T) {
	f := func(raw []uint16, partsRaw uint8) bool {
		c := testCluster()
		data := make([]int, len(raw))
		for i, r := range raw {
			data[i] = int(r)
		}
		parts := int(partsRaw%16) + 1
		got := Collect(Map(Parallelize(c, data, parts), func(x int) int { return 3*x + 1 }))
		if len(got) != len(data) {
			return false
		}
		for i, x := range data {
			if got[i] != 3*x+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceBalancesWeights(t *testing.T) {
	c := testCluster()
	// Build a dataset with wildly unbalanced partitions via Union.
	big := Parallelize(c, seq(10000), 2) // two partitions of 5000
	small := Parallelize(c, seq(64), 32) // 32 partitions of 2
	u := Union(big, small)
	if u.NumPartitions() != 34 {
		t.Fatalf("union partitions = %d", u.NumPartitions())
	}
	co := Coalesce(u, 8)
	if co.NumPartitions() != 8 {
		t.Fatalf("coalesced partitions = %d, want 8", co.NumPartitions())
	}
	// Balance is exact: 10064 elements over 8 partitions is 1258 each.
	for i := 0; i < 8; i++ {
		if n := len(co.Partition(i)); n != 1258 {
			t.Fatalf("partition %d has %d elements, want 1258", i, n)
		}
	}
	// Order is kept: the output is the input sequence.
	all, want := Collect(co), Collect(u)
	if len(all) != len(want) {
		t.Fatalf("coalesce kept %d of %d elements", len(all), len(want))
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("element %d = %d, want %d", i, all[i], want[i])
		}
	}
}

func TestCoalesceNoOpWhenSmall(t *testing.T) {
	c := testCluster()
	d := Parallelize(c, seq(10), 4)
	if got := Coalesce(d, 8); got != d {
		t.Fatal("coalesce copied a small dataset")
	}
	if got := Coalesce(d, 0); got.NumPartitions() != 1 {
		t.Fatalf("coalesce to p<1 got %d partitions", got.NumPartitions())
	}
}

func TestCoalesceDeterministic(t *testing.T) {
	c := testCluster()
	d := Union(Parallelize(c, seq(100), 10), Parallelize(c, seq(50), 5))
	a := Collect(Coalesce(d, 3))
	b := Collect(Coalesce(d, 3))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("coalesce order not deterministic")
		}
	}
}

func TestShuffleCoordCharged(t *testing.T) {
	c := MustNew(Config{Nodes: 2, CoresPerNode: 2, DefaultPartitions: 8})
	d := Parallelize(c, seq(1000), 8)
	Distinct(d, func(x int) int { return x }, func(k int) uint64 { return uint64(k) })
	m := c.Metrics()
	if m.SerialTime <= 0 {
		t.Fatal("no shuffle coordination charged")
	}
	// The charge scales with partitions: 8 * 300ns = 2400ns.
	if m.SerialTime != 8*300 {
		t.Fatalf("SerialTime = %v, want 2.4µs", m.SerialTime)
	}
}

func TestTracerStageSequence(t *testing.T) {
	tr := NewTracer()
	c := MustNew(Config{Nodes: 1, CoresPerNode: 2, DefaultPartitions: 4, Tracer: tr})
	d := Parallelize(c, seq(100), 4)
	Map(d, func(x int) int { return x + 1 })
	Distinct(d, func(x int) int { return x }, func(k int) uint64 { return uint64(k) })
	log := tr.Spans()
	if len(log) != 5 { // map + distinct phase1 + coord + phase2 + emit
		t.Fatalf("stage log has %d entries: %+v", len(log), log)
	}
	var serial int
	for _, s := range log {
		if s.Serial {
			serial++
		}
	}
	if serial != 1 {
		t.Fatalf("serial stages = %d, want 1 (shuffle coord)", serial)
	}
}

// Distinct keeps first occurrences in input order (maps are
// membership-only), so its output must be byte-identical across runs,
// parallelism and partitionings.
func TestDistinctDeterministicAcrossRuns(t *testing.T) {
	run := func(maxParallel int) []int {
		c := MustNew(Config{Nodes: 2, CoresPerNode: 2, DefaultPartitions: 8, MaxParallel: maxParallel})
		d := Parallelize(c, seq(3000), 1+maxParallel*5)
		d = Map(d, func(x int) int { return x % 271 })
		return Collect(Distinct(d, func(x int) int { return x }, func(k int) uint64 {
			z := uint64(k) * 0xbf58476d1ce4e5b9
			return z ^ (z >> 27)
		}))
	}
	first := run(0)
	for _, mp := range []int{0, 1, 4} {
		got := run(mp)
		if len(got) != len(first) {
			t.Fatalf("MaxParallel=%d: %d elems, want %d", mp, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("MaxParallel=%d: elem %d = %d, want %d", mp, i, got[i], first[i])
			}
		}
	}
}

// TestDistinctOnCancelledCluster: a cancelled cluster skips Distinct's
// local phase, so no partition has buckets. The shuffle must then return an
// empty dataset, not index into the missing buckets.
func TestDistinctOnCancelledCluster(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := MustNew(Config{DefaultPartitions: 4, Context: ctx})
	d := Parallelize(c, seq(100), 0)
	cancel()
	if n := Distinct(d, func(x int) int { return x }, func(k int) uint64 { return uint64(k) }).Count(); n != 0 {
		t.Fatalf("cancelled Distinct kept %d elements", n)
	}
	if !errors.Is(c.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", c.Err())
	}
}
