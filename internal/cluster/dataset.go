package cluster

import (
	"fmt"
	"iter"
	"math"
	"reflect"
	"sort"

	"csb/internal/stats"
)

// Dataset is a partitioned in-memory collection, the RDD substitute. Values
// are held in per-partition slices; operations run one task per partition,
// or, where they draw, one per run of whole blocks (see blockSize). Datasets
// are immutable: every operation produces a new Dataset.
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
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	return n * elemBytes[T]()
}

// elemBytes is the size bytesOf charges per element: at least one byte.
func elemBytes[T any]() int64 {
	var zero T
	return max(int64(reflect.TypeOf(&zero).Elem().Size()), 1)
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
	p := partitions
	if p <= 0 {
		p = c.cfg.DefaultPartitions
	}
	p = min(p, len(data))
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

// blockSize is the run of the global element index one RNG stream covers:
// every stage that draws keys element g's draws to DeriveRNG(stageSeed,
// g/blockSize). A stage's tasks are contiguous runs of whole blocks, since
// the draws per element vary (IntN rejects) and no task could start a stream
// mid-block. So output bytes follow from the seed and the element sequence
// alone; the partition count, and with it the cluster shape, is placement.
// The block is the finest task grain, so it is small: Figure 12's ≈ 100k-
// element PGSK stages still have more blocks than its 720 virtual cores.
const blockSize = 128

// blockTasks splits n elements into at most p tasks of whole blocks, as
// even in blocks as they divide: task t covers the w[t] elements from lo[t].
// Drawing stages pass DefaultPartitions, never their input's partitioning.
func blockTasks(n int64, p int) (lo, w []int64) {
	blocks := (n + blockSize - 1) / blockSize
	t := min(int64(max(p, 1)), blocks)
	for i := int64(0); i < t; i++ {
		a, b := i*blocks/t*blockSize, min((i+1)*blocks/t*blockSize, n)
		lo, w = append(lo, a), append(w, b-a)
	}
	return lo, w
}

// Run is a stretch of a block-keyed stage's input within one block and one
// partition: the elements Xs, in order, from global index At, and RNG, the
// block's stream. The runs of one block share it, so draws continue across
// a partition boundary as if there were none.
type Run[T any] struct {
	RNG *stats.RNG
	At  int64
	Xs  []T
}

// runs yields the Runs of d's elements in [lo, hi), lo a block boundary,
// with streams derived from seed; offsets is d.Offsets(), taken once a stage.
func (d *Dataset[T]) runs(offsets []int64, lo, hi int64, seed uint64) iter.Seq[Run[T]] {
	return func(yield func(Run[T]) bool) {
		// The last partition starting at or before lo holds it: an empty
		// one shares its offset with the next.
		p := sort.Search(len(offsets), func(i int) bool { return offsets[i] > lo }) - 1
		var rng *stats.RNG
		for at := lo; at < hi; {
			for at >= offsets[p]+int64(len(d.parts[p])) {
				p++
			}
			if at%blockSize == 0 {
				rng = DeriveRNG(seed, uint64(at/blockSize))
			}
			end := min(hi, (at/blockSize+1)*blockSize, offsets[p]+int64(len(d.parts[p])))
			if !yield(Run[T]{RNG: rng, At: at, Xs: d.parts[p][at-offsets[p] : end-offsets[p]]}) {
				return
			}
			at = end
		}
	}
}

// MapBlocks is the map stage for closures that draw, traced as op: task f
// gets its n elements as the runs of contiguous whole blocks, with streams
// derived from seed, and returns its output. Tasks are at most
// DefaultPartitions; what they return depends on the element sequence and
// seed alone, never on the partitioning.
func MapBlocks[T, U any](in *Dataset[T], op string, seed uint64, f func(n int, runs iter.Seq[Run[T]]) []U) *Dataset[U] {
	lo, w := blockTasks(in.Count(), in.c.cfg.DefaultPartitions)
	offsets, parts := in.Offsets(), make([][]U, len(w))
	in.c.runStage(stageSpec{op: op, weights: w, bytesIn: bytesOf(in.parts),
		bytesOut: func() int64 { return bytesOf(parts) }}, len(parts), func(t int) {
		parts[t] = f(int(w[t]), in.runs(offsets, lo[t], lo[t]+w[t], seed))
	})
	return newDataset(in.c, parts)
}

// DrawBlocks calls draw(rng, k) once per block of the count elements that
// start at block first, in order: k is the block's share of count and rng
// is DeriveRNG(seed, block). It is GenerateRemotable's task body, exported
// so a worker replaying a task's payload draws the same streams.
func DrawBlocks(seed, first uint64, count int64, draw func(rng *stats.RNG, k int64)) {
	for b := first; count > 0; b++ {
		k := min(count, blockSize)
		draw(DeriveRNG(seed, b), k)
		count -= k
	}
}

// GenerateRemotable creates a dataset of n elements produced by gen, the
// parallel-source primitive the generators build on: element g is drawn
// from DeriveRNG(seed, g/blockSize), one gen call per block, in tasks of
// whole blocks. When payload is set and the cluster has a TaskExecutor, a
// task may instead run as remote.Kind with payload(seed, first block, count)
// bytes; the worker's result (DrawBlocks over the same arguments) is decoded
// into the task's partition with decode. A nil payload keeps every task
// local, for a gen that reads the coordinator's data. Where tasks run, and
// how many there are, never changes the bytes.
func GenerateRemotable[T any](c *Cluster, n int64, seed uint64, kind string,
	gen func(rng *stats.RNG, emit func(T), count int64),
	payload func(seed, block uint64, count int64) []byte,
	decode func(result []byte) ([]T, error),
) *Dataset[T] {
	lo, weights := blockTasks(n, c.cfg.DefaultPartitions)
	parts := make([][]T, len(weights))
	var remote *RemoteStage
	if payload != nil {
		remote = &RemoteStage{Kind: kind,
			Payload: func(task int) []byte { return payload(seed, uint64(lo[task]/blockSize), weights[task]) },
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
			}}
	}
	c.runStage(stageSpec{op: "generate", weights: weights, remote: remote,
		bytesOut: func() int64 { return bytesOf(parts) }}, len(parts), func(i int) {
		out := make([]T, 0, weights[i])
		emit := func(v T) { out = append(out, v) }
		DrawBlocks(seed, uint64(lo[i]/blockSize), weights[i], func(rng *stats.RNG, k int64) { gen(rng, emit, k) })
		parts[i] = out
	})
	return newDataset(c, parts)
}

// MapPartitionsRemotable applies f to every partition once, for stages that
// can also run in another process: f is the local closure; payload renders
// partition i's input as self-contained bytes for remote.Kind, and decode
// turns a worker's result bytes back into the output partition. The two paths must agree
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

// Sample returns a dataset where each element is kept independently with
// probability fraction — RDD.sample without replacement, the first stage of
// the PGPBA preferential attachment. Element g's draw comes from its block's
// stream, so the sample is deterministic in seed and the element sequence.
func Sample[T any](in *Dataset[T], fraction float64, seed uint64) *Dataset[T] {
	fraction = max(fraction, 0)
	return MapBlocks(in, "sample", seed, func(n int, runs iter.Seq[Run[T]]) []T {
		// Pre-size to the expected survivor count (exact for fraction >= 1,
		// mean + 1 otherwise); the occasional over-draw grows once.
		if fraction < 1 {
			n = int(fraction*float64(n)) + 1
		}
		dst := make([]T, 0, n)
		for r := range runs {
			for _, v := range r.Xs {
				if fraction >= 1 || r.RNG.Float64() < fraction {
					dst = append(dst, v)
				}
			}
		}
		return dst
	})
}

// maxShuffleInts guards the int32 scratch indices: a partition beyond 2^31
// elements would silently truncate, so refuse it loudly. At 16 bytes per
// element that is a 32 GiB single partition — repartition long before then.
const maxShuffleInts = math.MaxInt32

// Distinct removes duplicates under key — RDD.distinct, used by the PGSK
// edge generation — keeping each key's first occurrence in input order. It
// is a two-phase parallel hash shuffle for membership, like Spark's: phase
// one dedups each partition locally and splits the survivors' indices into
// shards by shard(key); phase two walks each shard's indices in input order
// and marks the first occurrence of every key. Duplicates always hash to
// the same shard, so the marks are globally distinct; a last pass keeps the
// marked elements of each partition in place. The shard function must be
// deterministic and must map equal keys to equal values; a short barrier
// between the phases models the shuffle coordination.
//
// Maps are used only for membership, never iterated, so the output is the
// input's first occurrences in order: it depends neither on the partitioning
// nor on scheduling. The golden-digest tests in internal/core and the
// property tests in this package hold the guarantee in place.
func Distinct[T any, K comparable](in *Dataset[T], key func(T) K, shard func(K) uint64) *Dataset[T] {
	p := len(in.parts)
	if p == 0 {
		return newDataset(in.c, make([][]T, 0))
	}
	// Shards follow the cluster's partitioning (Spark's default parallelism).
	shards := max(p, in.c.cfg.DefaultPartitions)
	// Phase 1: local dedup + shard split. at[i][s] holds the indices in
	// partition i of its local first occurrences destined for shard s, in
	// input order; keep[i] is where phase two marks the global ones.
	at := make([][][]int32, p)
	keep := make([][]bool, p)
	in.c.runStage(stageSpec{op: "distinct.local", weights: partWeights(in.parts),
		bytesIn: bytesOf(in.parts)}, p, func(i int) {
		src := in.parts[i]
		if len(src) > maxShuffleInts {
			panic("cluster: Distinct partition exceeds 2^31 elements; repartition first")
		}
		seen := make(map[K]struct{}, len(src))
		idx := make([][]int32, shards)
		for j, v := range src {
			k := key(v)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			s := shard(k) % uint64(shards)
			idx[s] = append(idx[s], int32(j))
		}
		at[i], keep[i] = idx, make([]bool, len(src))
	})
	// Shuffle barrier: the driver-side coordination is charged per
	// partition (shuffleCoordPerPartition); it is the term that keeps
	// distinct-heavy pipelines (PGSK) slightly below ideal speedup as
	// partition counts grow with the cluster.
	in.c.chargeShuffleCoord(shards)
	shardW := shardWeights(at, shards)
	kept := make([]int64, shards)
	in.c.runStage(stageSpec{op: "distinct.merge", weights: shardW,
		bytesIn: bytesOf(in.parts),
		bytesOut: func() int64 {
			var n int64
			for _, k := range kept {
				n += k
			}
			return n * elemBytes[T]()
		}}, shards, func(s int) {
		// shardW[s] bounds this shard's key count exactly when there are
		// no cross-partition duplicates, so the map pre-sizes to it.
		seen := make(map[K]struct{}, int(shardW[s]))
		for i := range at {
			for _, j := range at[i][s] {
				k := key(in.parts[i][j])
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				keep[i][j] = true
			}
		}
		kept[s] = int64(len(seen))
	})
	out := make([][]T, p)
	in.c.runStage(stageSpec{op: "distinct.emit", weights: partWeights(in.parts),
		bytesIn: bytesOf(in.parts), bytesOut: func() int64 { return bytesOf(out) }}, p, func(i int) {
		var n int // the local survivors bound the global ones
		for _, idx := range at[i] {
			n += len(idx)
		}
		dst := make([]T, 0, n)
		for j, k := range keep[i] {
			if k {
				dst = append(dst, in.parts[i][j])
			}
		}
		out[i] = dst
	})
	return newDataset(in.c, out)
}

// shardWeights sums the per-shard bucket sizes across all source partitions
// — the merge phase's task weights and pre-size bounds. A partition whose
// local task never ran (a cancelled stage) has no buckets and adds nothing.
func shardWeights[T any](buckets [][][]T, p int) []int64 {
	w := make([]int64, p)
	for _, bkts := range buckets {
		for s, b := range bkts {
			w[s] += int64(len(b))
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

// Coalesce reduces the partition count to at most p: one measured parallel
// task per input partition copies it into place, and the copy is split as
// Parallelize splits, into p contiguous runs of equal size (±1). So order is
// kept and the result is balanced exactly, even when a Union chain mixed
// tiny and huge partitions — unbalanced output would skew every downstream
// stage's makespan. Union chains grow the partition count unboundedly; the
// generators coalesce periodically so per-task scheduling overhead stays
// amortized (Spark's coalesce/repartition role).
func Coalesce[T any](in *Dataset[T], p int) *Dataset[T] {
	p = max(p, 1)
	if len(in.parts) <= p {
		return in
	}
	all, offsets := make([]T, in.Count()), in.Offsets()
	in.c.runStage(stageSpec{op: "coalesce", weights: partWeights(in.parts),
		bytesIn:  bytesOf(in.parts),
		bytesOut: func() int64 { return bytesOf(in.parts) }}, len(in.parts), func(i int) {
		copy(all[offsets[i]:], in.parts[i])
	})
	return Parallelize(in.c, all, p)
}

// DeriveRNG returns a deterministic PCG stream for (seed, stream); every
// block of a drawing stage derives its own, so results are reproducible
// regardless of scheduling and partitioning.
func DeriveRNG(seed, stream uint64) *stats.RNG {
	// SplitMix64 finalizer decorrelates the stream keys.
	z := stream + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return stats.NewRNG(seed, z)
}
