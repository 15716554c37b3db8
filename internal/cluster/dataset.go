package cluster

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

	"csb/internal/stats"
)

// Dataset is a partitioned in-memory collection, the RDD substitute. Values
// are held in per-partition slices; operations run one task per partition.
// Datasets are immutable: every operation produces a new Dataset.
type Dataset[T any] struct {
	c     *Cluster
	parts [][]T
}

// NumPartitions returns the partition count.
func (d *Dataset[T]) NumPartitions() int { return len(d.parts) }

// Cluster returns the executing cluster.
func (d *Dataset[T]) Cluster() *Cluster { return d.c }

// Count returns the total number of elements.
func (d *Dataset[T]) Count() int64 {
	var n int64
	for _, p := range d.parts {
		n += int64(len(p))
	}
	return n
}

// Partition returns partition i (shared storage; read-only).
func (d *Dataset[T]) Partition(i int) []T { return d.parts[i] }

// Offsets returns the exclusive prefix sums of the partition sizes: where
// each partition starts in Collect order, so tasks can number or place their
// elements independently.
func (d *Dataset[T]) Offsets() []int64 {
	offsets := make([]int64, len(d.parts))
	var acc int64
	for i, p := range d.parts {
		offsets[i] = acc
		acc += int64(len(p))
	}
	return offsets
}

// bytesOf estimates the memory footprint of a dataset from its element type
// size; good enough for the Figure 11 accounting.
func bytesOf[T any](parts [][]T) int64 {
	var zero T
	elem := int64(reflect.TypeOf(&zero).Elem().Size())
	if elem == 0 {
		elem = 1
	}
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	return n * elem
}

func newDataset[T any](c *Cluster, parts [][]T) *Dataset[T] {
	d := &Dataset[T]{c: c, parts: parts}
	c.chargeMemory(bytesOf(parts))
	return d
}

// inSpec builds the stageSpec shared by the element-wise operations: task
// weights and input bytes come from the source partitions, output bytes are
// measured from the destination partitions once the stage completes.
func inSpec[T, U any](op string, in *Dataset[T], out [][]U) stageSpec {
	return stageSpec{
		op:       op,
		weights:  partWeights(in.parts),
		bytesIn:  bytesOf(in.parts),
		bytesOut: func() int64 { return bytesOf(out) },
	}
}

// partWeights returns per-partition element counts, the task weights used
// to apportion stage time (see runStage).
func partWeights[T any](parts [][]T) []int64 {
	w := make([]int64, len(parts))
	for i, p := range parts {
		w[i] = int64(len(p))
	}
	return w
}

// Parallelize splits data into balanced partitions distributed over the
// cluster (partitions <= 0 uses the cluster default; the count is clamped to
// len(data), so no partition is ever empty and an empty input yields zero
// partitions). The input slice is not copied; partitions alias its storage,
// with their capacities clamped so appending to one partition can never
// bleed into the next.
//
// Sizes differ by at most one element: base = len/p with the remainder
// spread over the first len%p partitions. The previous ceil-chunk split
// could strand empty or near-empty tail partitions (e.g. 6 elements over 4
// partitions became 2/2/2/0), which skewed every downstream stage's task
// weights and wasted shuffle buckets.
func Parallelize[T any](c *Cluster, data []T, partitions int) *Dataset[T] {
	p := c.defaultPartitions(partitions)
	if p > len(data) {
		p = len(data)
	}
	if len(data) == 0 {
		return newDataset(c, make([][]T, 0))
	}
	parts := make([][]T, p)
	base, rem := len(data)/p, len(data)%p
	lo := 0
	for i := range parts {
		n := base
		if i < rem {
			n++
		}
		parts[i] = data[lo : lo+n : lo+n]
		lo += n
	}
	return newDataset(c, parts)
}

// GenerateRemotable creates a dataset of n elements produced by gen, one task
// per partition, each with its own deterministic RNG derived from seed — the
// parallel-source primitive the generators build on — as a stage that can
// also run in another process: when the cluster has a TaskExecutor each
// partition task may instead be dispatched as remote.Kind with
// payload(part, seed, count) bytes, and the worker's result bytes are decoded
// into the partition with decode. Partitioning depends only on (n, partitions,
// cluster shape) — never on worker availability — which is what keeps output
// identical in-process, with 1 worker, and with N workers.
func GenerateRemotable[T any](c *Cluster, n int64, partitions int, seed uint64, kind string,
	gen func(rng *stats.RNG, emit func(T), count int64),
	payload func(part int, seed uint64, count int64) []byte,
	decode func(result []byte) ([]T, error),
) *Dataset[T] {
	p := c.defaultPartitions(partitions)
	if int64(p) > n && n > 0 {
		p = int(n)
	}
	if n == 0 {
		return newDataset(c, make([][]T, 0))
	}
	parts := make([][]T, p)
	base := n / int64(p)
	rem := n % int64(p)
	weights := make([]int64, p)
	for i := range weights {
		weights[i] = base
		if int64(i) < rem {
			weights[i]++
		}
	}
	remote := &RemoteStage{
		Kind:    kind,
		Payload: func(task int) []byte { return payload(task, seed, weights[task]) },
		Apply: func(task int, result []byte) error {
			out, err := decode(result)
			if err != nil {
				return err
			}
			if int64(len(out)) != weights[task] {
				return fmt.Errorf("cluster: remote %s task %d returned %d elements, want %d",
					kind, task, len(out), weights[task])
			}
			parts[task] = out
			return nil
		},
	}
	c.runStage(stageSpec{op: "generate", weights: weights, remote: remote,
		bytesOut: func() int64 { return bytesOf(parts) }}, p, func(i int) {
		count := weights[i]
		out := make([]T, 0, count)
		rng := DeriveRNG(seed, uint64(i))
		gen(rng, func(v T) { out = append(out, v) }, count)
		parts[i] = out
	})
	return newDataset(c, parts)
}

// MapPartitionsRemotable is MapPartitions for stages that can also run in
// another process: f is the local closure; payload renders partition i's
// input as self-contained bytes for remote.Kind, and decode turns a worker's
// result bytes back into the output partition. The two paths must agree
// byte-for-byte (f(i, xs) == decode(worker(payload(i, xs)))) — the golden
// determinism tests hold them together.
func MapPartitionsRemotable[T, U any](in *Dataset[T], kind string,
	f func(part int, xs []T) []U,
	payload func(part int, xs []T) []byte,
	decode func(result []byte) ([]U, error),
) *Dataset[U] {
	parts := make([][]U, len(in.parts))
	spec := inSpec("mapPartitions", in, parts)
	spec.remote = &RemoteStage{
		Kind:    kind,
		Payload: func(task int) []byte { return payload(task, in.parts[task]) },
		Apply: func(task int, result []byte) error {
			out, err := decode(result)
			if err != nil {
				return err
			}
			parts[task] = out
			return nil
		},
	}
	in.c.runStage(spec, len(in.parts), func(i int) {
		parts[i] = f(i, in.parts[i])
	})
	return newDataset(in.c, parts)
}

// Map applies f to every element.
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

// MapPartitions applies f to whole partitions, allowing per-partition state
// (e.g. a partition-local RNG).
func MapPartitions[T, U any](in *Dataset[T], f func(part int, xs []T) []U) *Dataset[U] {
	parts := make([][]U, len(in.parts))
	in.c.runStage(inSpec("mapPartitions", in, parts), len(in.parts), func(i int) {
		parts[i] = f(i, in.parts[i])
	})
	return newDataset(in.c, parts)
}

// Sample returns a dataset where each element is kept independently with
// probability fraction — RDD.sample without replacement, the first stage of
// the PGPBA preferential attachment. Deterministic in seed.
func Sample[T any](in *Dataset[T], fraction float64, seed uint64) *Dataset[T] {
	if fraction < 0 {
		fraction = 0
	}
	parts := make([][]T, len(in.parts))
	in.c.runStage(inSpec("sample", in, parts), len(in.parts), func(i int) {
		rng := DeriveRNG(seed, uint64(i))
		src := in.parts[i]
		// Pre-size to the expected survivor count (exact for fraction >= 1,
		// mean + 1 otherwise); the occasional over-draw grows once.
		want := len(src)
		if fraction < 1 {
			want = int(fraction*float64(len(src))) + 1
		}
		dst := make([]T, 0, want)
		for _, v := range src {
			if fraction >= 1 || rng.Float64() < fraction {
				dst = append(dst, v)
			}
		}
		parts[i] = dst
	})
	return newDataset(in.c, parts)
}

// shardScratch is the recyclable per-task scratch of the Distinct shuffle:
// the per-survivor destination shard, the per-survivor source index, and the
// per-shard survivor counts. Pooling it means a steady-state shuffle task
// allocates only its dedup map and one flat output block.
type shardScratch struct {
	shards []int32 // destination shard per survivor
	idx    []int32 // source index per survivor
	counts []int64 // survivors per shard
}

var shardScratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

// getShardScratch returns a scratch with empty survivor slices and p zeroed
// counts.
func getShardScratch(p int) *shardScratch {
	sc := shardScratchPool.Get().(*shardScratch)
	sc.shards = sc.shards[:0]
	sc.idx = sc.idx[:0]
	if cap(sc.counts) < p {
		sc.counts = make([]int64, p)
	} else {
		sc.counts = sc.counts[:p]
		clear(sc.counts)
	}
	return sc
}

func putShardScratch(sc *shardScratch) { shardScratchPool.Put(sc) }

// bucketize carves one flat, exactly sized allocation into p shard buckets
// (bucket s pre-sized to counts[s]) and returns them ready for appends. The
// flat backing replaces the per-shard append chains the shuffle used to
// grow: one allocation instead of O(p log n).
func bucketize[T any](counts []int64, total int) [][]T {
	flat := make([]T, total)
	bkts := make([][]T, len(counts))
	off := 0
	for s, n := range counts {
		bkts[s] = flat[off : off : off+int(n)]
		off += int(n)
	}
	return bkts
}

// maxShuffleInts guards the int32 scratch indices: a partition beyond 2^31
// elements would silently truncate, so refuse it loudly. At 16 bytes per
// element that is a 32 GiB single partition — repartition long before then.
const maxShuffleInts = math.MaxInt32

// Distinct removes duplicates under key — RDD.distinct, used by the PGSK
// edge generation. It is a two-phase parallel hash shuffle, like Spark's:
// phase one dedups each partition locally and splits survivors into shard
// buckets by shard(key); phase two merges and dedups each shard across all
// partitions. Duplicates always hash to the same shard, so the result is
// globally distinct. The shard function must be deterministic and must map
// equal keys to equal values; a short barrier between the phases models the
// shuffle coordination.
//
// Output order is deterministic: both phases emit survivors in first-
// occurrence order (maps are used only for membership, never iterated), so
// the result depends only on the input partitioning — never on scheduling
// or Go's randomized map order. The golden-digest tests in internal/core and
// the property tests in this package hold the guarantee in place.
func Distinct[T any, K comparable](in *Dataset[T], key func(T) K, shard func(K) uint64) *Dataset[T] {
	p := len(in.parts)
	if p == 0 {
		return newDataset(in.c, make([][]T, 0))
	}
	// Phase 1: local dedup + bucket split. buckets[i][s] holds partition
	// i's survivors destined for shard s, in input order. Survivors are
	// first picked out into pooled scratch (shard + source index), then
	// placed into one flat pre-sized block per task.
	buckets := make([][][]T, p)
	in.c.runStage(stageSpec{op: "distinct.local", weights: partWeights(in.parts),
		bytesIn: bytesOf(in.parts)}, p, func(i int) {
		src := in.parts[i]
		if len(src) > maxShuffleInts {
			panic("cluster: Distinct partition exceeds 2^31 elements; repartition first")
		}
		seen := make(map[K]struct{}, len(src))
		sc := getShardScratch(p)
		defer putShardScratch(sc)
		for j, v := range src {
			k := key(v)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			s := int32(shard(k) % uint64(p))
			sc.shards = append(sc.shards, s)
			sc.idx = append(sc.idx, int32(j))
			sc.counts[s]++
		}
		bkts := bucketize[T](sc.counts, len(sc.idx))
		for n, j := range sc.idx {
			s := sc.shards[n]
			bkts[s] = append(bkts[s], src[j])
		}
		buckets[i] = bkts
	})
	// Shuffle barrier: the driver-side coordination is charged per
	// partition (shuffleCoordPerPartition); it is the term that keeps
	// distinct-heavy pipelines (PGSK) slightly below ideal speedup as
	// partition counts grow with the cluster.
	in.c.chargeShuffleCoord(p)
	shardW := shardWeights(buckets, p)
	merged := make([][]T, p)
	in.c.runStage(stageSpec{op: "distinct.merge", weights: shardW,
		bytesIn:  bytesOf(in.parts),
		bytesOut: func() int64 { return bytesOf(merged) }}, p, func(s int) {
		// shardW[s] bounds this shard's output exactly when there are no
		// cross-partition duplicates, so the map and output pre-size to it.
		total := int(shardW[s])
		seen := make(map[K]struct{}, total)
		dst := make([]T, 0, total)
		for i := 0; i < p; i++ {
			for _, v := range buckets[i][s] {
				k := key(v)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				dst = append(dst, v)
			}
		}
		merged[s] = dst
	})
	return newDataset(in.c, merged)
}

// shardWeights sums the per-shard bucket sizes across all source partitions
// — the merge phase's task weights and pre-size bounds.
func shardWeights[T any](buckets [][][]T, p int) []int64 {
	w := make([]int64, p)
	for i := 0; i < p; i++ {
		for s := 0; s < p; s++ {
			w[s] += int64(len(buckets[i][s]))
		}
	}
	return w
}

// Collect concatenates all partitions into one slice.
func Collect[T any](in *Dataset[T]) []T {
	out := make([]T, 0, in.Count())
	for _, p := range in.parts {
		out = append(out, p...)
	}
	return out
}

// Union concatenates two datasets partition-wise (no data movement).
func Union[T any](a, b *Dataset[T]) *Dataset[T] {
	parts := make([][]T, 0, len(a.parts)+len(b.parts))
	parts = append(parts, a.parts...)
	parts = append(parts, b.parts...)
	return newDataset(a.c, parts)
}

// Coalesce reduces the partition count to at most p, one measured parallel
// task per output partition. Input partitions are packed into output bins
// largest-first onto the least-loaded bin, so the result is weight balanced
// even when a Union chain mixed tiny and huge partitions — unbalanced output
// would skew every downstream stage's makespan. Union chains grow the
// partition count unboundedly; the generators coalesce periodically so
// per-task scheduling overhead stays amortized (Spark's coalesce/repartition
// role).
func Coalesce[T any](in *Dataset[T], p int) *Dataset[T] {
	if p < 1 {
		p = 1
	}
	if len(in.parts) <= p {
		return in
	}
	// LPT bin packing of input partitions into p output bins.
	order := make([]int, len(in.parts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := len(in.parts[order[a]]), len(in.parts[order[b]])
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	groups := make([][]int, p)
	loads := make([]int64, p)
	for _, i := range order {
		best := 0
		for j := 1; j < p; j++ {
			if loads[j] < loads[best] {
				best = j
			}
		}
		groups[best] = append(groups[best], i)
		loads[best] += int64(len(in.parts[i]))
	}
	// Concatenate each group's members in input order (deterministic).
	for _, g := range groups {
		sort.Ints(g)
	}
	parts := make([][]T, p)
	in.c.runStage(stageSpec{op: "coalesce", weights: loads,
		bytesIn:  bytesOf(in.parts),
		bytesOut: func() int64 { return bytesOf(parts) }}, p, func(j int) {
		dst := make([]T, 0, loads[j])
		for _, i := range groups[j] {
			dst = append(dst, in.parts[i]...)
		}
		parts[j] = dst
	})
	return newDataset(in.c, parts)
}

// DeriveRNG returns a deterministic PCG stream for (seed, stream); every
// partition task derives its own so results are reproducible regardless of
// scheduling.
func DeriveRNG(seed, stream uint64) *stats.RNG {
	// SplitMix64 finalizer decorrelates the stream keys.
	z := stream + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return stats.NewRNG(seed, z)
}
