package genmodels

import "testing"

// Classical baseline generator micro-benchmarks: 100k edges each.

func BenchmarkGenErdosRenyi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ErdosRenyi(10000, 100000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RMAT(14, 100000, 0.57, 0.19, 0.19, 0.05, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
