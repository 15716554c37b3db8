package cluster

import (
	"fmt"
	"testing"
)

// Property-based equivalence tests: the parallel shuffle operators must agree
// with naive single-threaded references on randomized inputs, and their exact
// output (ordering included) must be invariant across worker counts and fault
// injection. Together with the golden digests in internal/core these pin the
// PR 1 determinism contract against the pooled shuffle implementation.

// propRNG is a SplitMix64 generator for reproducible randomized inputs.
type propRNG uint64

func (r *propRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// propConfigs enumerates the execution matrix of the equivalence tests:
// MaxParallel {1, 4, 16} crossed with fault rate {0, 0.2}.
func propConfigs(caseSeed uint64) []struct {
	name  string
	par   int
	rate  float64
	build func() *Cluster
} {
	var out []struct {
		name  string
		par   int
		rate  float64
		build func() *Cluster
	}
	for _, par := range []int{1, 4, 16} {
		for _, rate := range []float64{0, 0.2} {
			par, rate := par, rate
			out = append(out, struct {
				name  string
				par   int
				rate  float64
				build func() *Cluster
			}{
				name: fmt.Sprintf("par=%d,faults=%g", par, rate),
				par:  par, rate: rate,
				build: func() *Cluster {
					cfg := Config{
						Nodes: 4, CoresPerNode: 4,
						DefaultPartitions: 8, MaxParallel: par,
					}
					if rate > 0 {
						cfg.Faults = NewFaultPlan(caseSeed, rate)
						cfg.MaxTaskRetries = 8
						cfg.Speculation = true
					}
					return MustNew(cfg)
				},
			})
		}
	}
	return out
}

func mixKey(k int64) uint64 {
	z := uint64(k) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// propParts is the partition count a config of the matrix splits its input
// into: the operators' output must not depend on it.
func propParts(par int, rate float64) int { return par*3 + int(rate*10) + 1 }

func TestDistinctMatchesReference(t *testing.T) {
	for round := 0; round < 5; round++ {
		rng := propRNG(3000 + round)
		n := int(rng.next()%5000) + 1
		keySpace := int64(rng.next()%800) + 1
		data := make([]int64, n)
		// Naive reference: the first occurrence of every value, in order.
		var want []int64
		seen := map[int64]struct{}{}
		for i := range data {
			data[i] = int64(rng.next() % uint64(keySpace))
			if _, dup := seen[data[i]]; !dup {
				seen[data[i]] = struct{}{}
				want = append(want, data[i])
			}
		}

		for _, pc := range propConfigs(uint64(4000 + round)) {
			c := pc.build()
			ds := Parallelize(c, data, propParts(pc.par, pc.rate))
			got := Collect(Distinct(ds, func(v int64) int64 { return v }, mixKey))
			if err := c.Err(); err != nil {
				t.Fatalf("round %d %s: cluster error: %v", round, pc.name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d %s: %d distinct, want %d", round, pc.name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d %s: output[%d] = %d, want first occurrence %d",
						round, pc.name, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSampleMatchesReference(t *testing.T) {
	for round := 0; round < 5; round++ {
		rng := propRNG(5000 + round)
		n := int(rng.next()%(3*blockSize)) + 1
		data := make([]int64, n)
		for i := range data {
			data[i] = int64(rng.next())
		}
		sampleSeed := rng.next()

		for _, fraction := range []float64{0, 0.3, 1} {
			var baseline []int64
			for _, pc := range propConfigs(uint64(6000 + round)) {
				c := pc.build()
				ds := Parallelize(c, data, propParts(pc.par, pc.rate))
				got := Collect(Sample(ds, fraction, sampleSeed))
				if err := c.Err(); err != nil {
					t.Fatalf("round %d f=%g %s: cluster error: %v", round, fraction, pc.name, err)
				}
				switch fraction {
				case 0:
					if len(got) != 0 {
						t.Fatalf("round %d %s: fraction 0 kept %d elements", round, pc.name, len(got))
					}
				case 1:
					if len(got) != n {
						t.Fatalf("round %d %s: fraction 1 kept %d of %d", round, pc.name, len(got), n)
					}
				default:
					// Naive reference property: the sample is a subsequence of
					// the input (Sample preserves order).
					j := 0
					for _, v := range data {
						if j < len(got) && got[j] == v {
							j++
						}
					}
					if j != len(got) {
						t.Fatalf("round %d %s: sample is not a subsequence of the input (matched %d of %d)",
							round, pc.name, j, len(got))
					}
				}
				if baseline == nil {
					baseline = got
					continue
				}
				if len(got) != len(baseline) {
					t.Fatalf("round %d f=%g %s: %d sampled, baseline %d", round, fraction, pc.name, len(got), len(baseline))
				}
				for i := range got {
					if got[i] != baseline[i] {
						t.Fatalf("round %d f=%g %s: output[%d] differs from baseline", round, fraction, pc.name, i)
					}
				}
			}
		}
	}
}
