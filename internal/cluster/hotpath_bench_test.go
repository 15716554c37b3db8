package cluster

// Hot-path micro-benchmarks for the engine operations the generators spend
// their time in. These are the per-op counterpart of the end-to-end
// workloads in benchmark/: run them with
//
//	go test -bench=. -benchmem ./internal/cluster/
//
// and compare B/op and allocs/op across changes. `go run ./benchmark` records
// the end-to-end numbers; these isolate the shuffle and stage-dispatch paths.

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

func BenchmarkDistinct(b *testing.B) {
	rng := DeriveRNG(43, 0)
	data := make([]int64, 200_000)
	for i := range data {
		data[i] = int64(rng.IntN(40_000))
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
