package eval

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestParseGridSmokeSpec(t *testing.T) {
	f, err := os.Open("testdata/smoke-grid.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sp, err := ParseGrid(f)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "eval-smoke" {
		t.Fatalf("name = %q", sp.Name)
	}
	if got := len(sp.Cells()); got != 8 {
		t.Fatalf("cells = %d, want 8 (2 generators × 2 sizes × 1 seed × 2 repeats)", got)
	}
	// Defaults filled by Normalize.
	if sp.Repeats != 2 || sp.PageRankPoints != DefaultPageRankPoints {
		t.Fatalf("normalize defaults: repeats=%d pagerank_points=%d", sp.Repeats, sp.PageRankPoints)
	}
	if len(sp.Utility.Attacks) == 0 || sp.Utility.Particles != DefaultParticles {
		t.Fatalf("utility defaults not filled: %+v", sp.Utility)
	}
}

func TestParseGridRejectsUnknownFields(t *testing.T) {
	_, err := ParseGrid(strings.NewReader(`{"generators":[{"name":"pgsk"}],"sizes":[100],"typo_field":1}`))
	if err == nil || !strings.Contains(err.Error(), "typo_field") {
		t.Fatalf("err = %v, want unknown-field error", err)
	}
}

func TestNormalizeRejectsBadSpecs(t *testing.T) {
	manySizes := make([]int64, 300)
	for i := range manySizes {
		manySizes[i] = 100
	}
	cases := []struct {
		name string
		sp   GridSpec
		want string
	}{
		{"no generators", GridSpec{Sizes: []int64{100}}, "at least one generator"},
		{"unknown generator", GridSpec{Generators: []GeneratorSpec{{Name: "erdos"}}, Sizes: []int64{100}}, "unknown name"},
		{"bad fraction", GridSpec{Generators: []GeneratorSpec{{Name: GenPGPBA, Fraction: 1.5}}, Sizes: []int64{100}}, "fraction"},
		{"no sizes", GridSpec{Generators: []GeneratorSpec{{Name: GenPGSK}}}, "at least one size"},
		{"negative size", GridSpec{Generators: []GeneratorSpec{{Name: GenPGSK}}, Sizes: []int64{-5}}, "must be positive"},
		{"negative repeats", GridSpec{Generators: []GeneratorSpec{{Name: GenPGSK}}, Sizes: []int64{100}, Repeats: -1}, "repeats"},
		{"too many cells", GridSpec{Generators: []GeneratorSpec{{Name: GenPGSK}}, Sizes: []int64{100}, Repeats: 4_000_000_000_000_000_000}, "cells"},
		{"too many cells in product", GridSpec{Generators: []GeneratorSpec{{Name: GenPGSK}}, Sizes: manySizes, Seeds: make([]uint64, 300)}, "cells"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sp.Normalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestCellsCanonicalOrder(t *testing.T) {
	sp := GridSpec{
		Generators: []GeneratorSpec{{Name: GenPGSK}, {Name: GenPGPBA}},
		Sizes:      []int64{100, 200},
		Seeds:      []uint64{1, 2},
		Repeats:    2,
	}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	cells := sp.Cells()
	if len(cells) != 16 {
		t.Fatalf("cells = %d, want 16", len(cells))
	}
	// Generators outermost, repeats innermost; Index matches position.
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
	}
	if cells[0].Generator.Name != GenPGSK || cells[8].Generator.Name != GenPGPBA {
		t.Fatalf("generator order: %s then %s", cells[0].Generator.Name, cells[8].Generator.Name)
	}
	if cells[0].Repeat != 0 || cells[1].Repeat != 1 || cells[2].BaseSeed != 2 {
		t.Fatalf("inner order wrong: %+v %+v %+v", cells[0], cells[1], cells[2])
	}
	if cells[4].Size != 200 {
		t.Fatalf("size order wrong: cell 4 size = %d", cells[4].Size)
	}
}

func TestGenSeedDistinctAcrossRepeats(t *testing.T) {
	a := Cell{BaseSeed: 7, Repeat: 0}
	b := Cell{BaseSeed: 7, Repeat: 1}
	if a.GenSeed() == b.GenSeed() {
		t.Fatal("repeats share a generation seed")
	}
}

func TestGridIDStableAndSensitive(t *testing.T) {
	mk := func() *GridSpec {
		sp := &GridSpec{
			Generators: []GeneratorSpec{{Name: GenPGSK}},
			Sizes:      []int64{100},
		}
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	a, b := mk(), mk()
	if a.ID() != b.ID() {
		t.Fatal("identical specs hash differently")
	}
	b.Sizes[0] = 101
	if a.ID() == b.ID() {
		t.Fatal("different specs share an ID")
	}
	if len(a.ID()) != 64 {
		t.Fatalf("ID length = %d, want 64 hex digits", len(a.ID()))
	}
}

// FuzzParseGrid: ParseGrid never panics, and a spec it accepts has a stable
// ID — the same after Normalize runs again and after a JSON round trip of
// the normalized spec — and exactly generators × sizes × seeds × repeats
// cells.
func FuzzParseGrid(f *testing.F) {
	for _, path := range []string{"testdata/smoke-grid.json", "../../experiments.json", "../../experiments-large.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"generators":[{"name":"pgsk"}],"sizes":[50000],"repeats":4000000000000000000}`))
	f.Add([]byte(`{"generators":[{"name":"pgpba","fraction":0.5}],"sizes":[1,2,3],"seeds":[7,7],"repeats":3,"pagerank_points":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		id := sp.ID()
		if sp.ID() != id {
			t.Fatal("ID differs between two calls")
		}
		if err := sp.Normalize(); err != nil {
			t.Fatalf("re-normalizing an accepted spec: %v", err)
		}
		if sp.ID() != id {
			t.Fatal("ID moved when Normalize ran again")
		}
		raw, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseGrid(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-parsing the normalized spec: %v", err)
		}
		if back.ID() != id {
			t.Fatal("ID moved across a JSON round trip")
		}
		want := len(sp.Generators) * len(sp.Sizes) * len(sp.Seeds) * sp.Repeats
		if want > maxGridCells {
			t.Fatalf("accepted %d cells, above maxGridCells", want)
		}
		cells := sp.Cells()
		if len(cells) != want {
			t.Fatalf("len(Cells()) = %d, want %d", len(cells), want)
		}
		for i, c := range cells {
			if c.Index != i {
				t.Fatalf("cell %d has Index %d", i, c.Index)
			}
		}
	})
}
