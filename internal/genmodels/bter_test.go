package genmodels

import (
	"math"
	"testing"

	"csb/internal/graphalgo"
)

// powerLawDegrees builds a heavy-tailed degree sequence.
func powerLawDegrees(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(100 / (i + 1))
		if out[i] < 2 {
			out[i] = 2
		}
	}
	return out
}

func TestBTERValidation(t *testing.T) {
	if _, err := BTER(nil, 0.5, 1); err == nil {
		t.Error("empty degrees accepted")
	}
	if _, err := BTER([]int64{2, 2}, 0, 1); err == nil {
		t.Error("zero density accepted")
	}
	if _, err := BTER([]int64{2, 2}, 1.5, 1); err == nil {
		t.Error("density > 1 accepted")
	}
	if _, err := BTER([]int64{-1, 2}, 0.5, 1); err == nil {
		t.Error("negative degree accepted")
	}
}

func TestBTERDegreeSequenceRoughlyPreserved(t *testing.T) {
	degrees := powerLawDegrees(400)
	g, err := BTER(degrees, 0.8, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wantSum int64
	for _, d := range degrees {
		wantSum += d
	}
	// Total degree = 2*edges must land near the requested sum.
	gotSum := 2 * g.NumEdges()
	if math.Abs(float64(gotSum-wantSum)) > 0.35*float64(wantSum) {
		t.Fatalf("degree mass: got %d want ~%d", gotSum, wantSum)
	}
	// The top-weight vertex must rank far above a tail vertex.
	deg := g.Degrees()
	if deg[0] < 4*deg[300] {
		t.Fatalf("degree ordering lost: deg[0]=%d deg[300]=%d", deg[0], deg[300])
	}
}

func TestBTERClusteringBeatsChungLu(t *testing.T) {
	// The whole point of BTER (Section II): same degree sequence, much
	// higher clustering than Chung-Lu.
	degrees := powerLawDegrees(400)
	bter, err := BTER(degrees, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	fdeg := make([]float64, len(degrees))
	for i, d := range degrees {
		fdeg[i] = float64(d) / 2 // CL splits degree over out+in
	}
	cl, err := ChungLu(fdeg, fdeg, 3)
	if err != nil {
		t.Fatal(err)
	}
	bterLocal, bterGlobal := graphalgo.ClusteringCoefficients(bter)
	clLocal, clGlobal := graphalgo.ClusteringCoefficients(cl)
	if bterLocal < 2*clLocal {
		t.Fatalf("BTER local clustering %g not above CL's %g", bterLocal, clLocal)
	}
	if bterGlobal <= clGlobal {
		t.Fatalf("BTER global clustering %g not above CL's %g", bterGlobal, clGlobal)
	}
}

func TestBTERDeterministic(t *testing.T) {
	degrees := powerLawDegrees(100)
	a, err := BTER(degrees, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BTER(degrees, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("sizes differ")
	}
	for i := range a.EdgeSlice() {
		if a.EdgeSlice()[i] != b.EdgeSlice()[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestBTERZeroDegreeVerticesIsolated(t *testing.T) {
	g, err := BTER([]int64{0, 3, 3, 3, 0, 3}, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	deg := g.Degrees()
	if deg[0] != 0 || deg[4] != 0 {
		t.Fatalf("zero-degree vertices got edges: %v", deg)
	}
}
