package cluster

import (
	"testing"
)

// Table-driven edge cases for the partition-count operators: p <= 0, p larger
// than the partition or element count, and empty datasets must all produce
// well-formed datasets (no panics, no empty stranded partitions from a
// repartition — Parallelize over the collected elements — and every element
// preserved).
func TestRepartitionEdgeCases(t *testing.T) {
	c := Local(2)
	cases := []struct {
		name      string
		elems     int
		initParts int
		p         int
		wantParts int // -1: don't check exact count
	}{
		{"zero p uses default", 10, 2, 0, -1},
		{"negative p uses default", 10, 2, -3, -1},
		{"p of one", 10, 4, 1, 1},
		{"p above partition count", 10, 2, 5, 5},
		{"p above element count clamps", 3, 2, 10, 3},
		{"empty dataset", 0, 2, 4, 0},
		{"single element", 1, 1, 8, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := make([]int, tc.elems)
			for i := range data {
				data[i] = i
			}
			in := Parallelize(c, data, tc.initParts)
			out := Parallelize(c, Collect(in), tc.p)
			if tc.wantParts >= 0 && out.NumPartitions() != tc.wantParts {
				t.Fatalf("partitions = %d, want %d", out.NumPartitions(), tc.wantParts)
			}
			got := Collect(out)
			if len(got) != tc.elems {
				t.Fatalf("collected %d elements, want %d", len(got), tc.elems)
			}
			// Repartitioning preserves element order exactly.
			for i, v := range got {
				if v != i {
					t.Fatalf("element %d = %d, order not preserved", i, v)
				}
			}
			// Balanced: partition sizes differ by at most one, none empty.
			minSz, maxSz := tc.elems, 0
			for i := 0; i < out.NumPartitions(); i++ {
				n := len(out.Partition(i))
				if n == 0 {
					t.Fatalf("partition %d is empty", i)
				}
				if n < minSz {
					minSz = n
				}
				if n > maxSz {
					maxSz = n
				}
			}
			if out.NumPartitions() > 0 && maxSz-minSz > 1 {
				t.Fatalf("unbalanced split: min %d max %d", minSz, maxSz)
			}
		})
	}
}

func TestCoalesceEdgeCases(t *testing.T) {
	c := Local(2)
	cases := []struct {
		name      string
		elems     int
		initParts int
		p         int
		wantParts int
	}{
		{"zero p clamps to one", 10, 4, 0, 1},
		{"negative p clamps to one", 10, 4, -2, 1},
		{"p above partition count is a no-op", 10, 2, 8, 2},
		{"p equal to partition count is a no-op", 10, 4, 4, 4},
		{"shrink", 20, 8, 3, 3},
		{"empty dataset", 0, 4, 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := make([]int, tc.elems)
			for i := range data {
				data[i] = i
			}
			in := Parallelize(c, data, tc.initParts)
			out := Coalesce(in, tc.p)
			if out.NumPartitions() != tc.wantParts {
				t.Fatalf("partitions = %d, want %d", out.NumPartitions(), tc.wantParts)
			}
			// Coalesce keeps the element sequence.
			got := Collect(out)
			if len(got) != tc.elems {
				t.Fatalf("collected %d elements, want %d", len(got), tc.elems)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("element %d = %d, want %d", i, v, i)
				}
			}
		})
	}
}
