package cluster

// Hot-path micro-benchmarks for the engine operations the generators spend
// their time in. These are the per-op counterpart of the end-to-end
// workloads in benchmark/: run them with
//
//	go test -bench=. -benchmem ./internal/cluster/
//
// and compare B/op and allocs/op across changes. `go run ./benchmark` records
// the end-to-end numbers; these isolate the shuffle and element-wise paths.

import (
	"testing"
)

// benchShard is the shard function used by every shuffle benchmark: a
// SplitMix64 finalizer, the same mixing the generators use for real keys.
func benchShard(k int64) uint64 {
	z := uint64(k) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// benchKVs builds n key-value pairs over `keys` distinct keys in a fixed
// pseudo-random order, so map-side combining has real work to do.
func benchKVs(n, keys int) []KV[int64, int64] {
	out := make([]KV[int64, int64], n)
	rng := DeriveRNG(42, 0)
	for i := range out {
		out[i] = KV[int64, int64]{Key: rng.Int64N(int64(keys)), Val: 1}
	}
	return out
}

func BenchmarkReduceByKey(b *testing.B) {
	data := benchKVs(200_000, 10_000)
	c := Local(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := Parallelize(c, data, 16)
		out := ReduceByKey(in, func(k int64) uint64 { return benchShard(k) },
			func(a, bv int64) int64 { return a + bv })
		if out.Count() == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkDistinct(b *testing.B) {
	rng := DeriveRNG(43, 0)
	data := make([]int64, 200_000)
	for i := range data {
		data[i] = rng.Int64N(40_000)
	}
	c := Local(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := Parallelize(c, data, 16)
		out := Distinct(in, func(v int64) int64 { return v }, benchShard)
		if out.Count() == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkMapFilter(b *testing.B) {
	rng := DeriveRNG(44, 0)
	data := make([]int64, 200_000)
	for i := range data {
		data[i] = rng.Int64N(1 << 20)
	}
	c := Local(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := Parallelize(c, data, 16)
		m := Map(in, func(v int64) int64 { return v * 3 })
		f := Filter(m, func(v int64) bool { return v&1 == 0 })
		if f.Count() == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFlatMap(b *testing.B) {
	rng := DeriveRNG(45, 0)
	data := make([]int64, 50_000)
	for i := range data {
		data[i] = rng.Int64N(1 << 20)
	}
	c := Local(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := Parallelize(c, data, 16)
		fm := FlatMap(in, func(v int64) []int64 { return []int64{v, v + 1} })
		if fm.Count() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkStageDispatch measures the fixed cost of scheduling a stage: many
// tiny tasks whose closure does almost nothing, so the goroutine/queue
// machinery dominates.
func BenchmarkStageDispatch(b *testing.B) {
	data := make([]int64, 256)
	for i := range data {
		data[i] = int64(i)
	}
	c := Local(4)
	in := Parallelize(c, data, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Map(in, func(v int64) int64 { return v + 1 })
		if out.NumPartitions() != 64 {
			b.Fatal("bad partition count")
		}
	}
}
