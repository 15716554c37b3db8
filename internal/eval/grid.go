package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"csb/internal/serve"
)

// Generator names accepted by GeneratorSpec.Name.
const (
	GenPGPBA = serve.GenPGPBA
	GenPGSK  = serve.GenPGSK
)

// GeneratorSpec selects one generator configuration of the grid.
type GeneratorSpec struct {
	// Name is pgpba or pgsk.
	Name string `json:"name"`
	// Fraction is the PGPBA growth fraction in (0, 1] (pgpba only,
	// default 0.1).
	Fraction float64 `json:"fraction,omitempty"`
}

// Display renders the generator for tables and logs ("pgsk", "pgpba f=0.1").
func (g GeneratorSpec) Display() string {
	if g.Name == GenPGPBA {
		return fmt.Sprintf("pgpba f=%g", g.Fraction)
	}
	return g.Name
}

// Grid defaults applied by Normalize; the seed shape and the generator
// fraction take serve.Spec's.
const (
	DefaultRepeats        = 1
	DefaultPageRankPoints = 100

	// maxGridCells bounds the cross product a spec may span. Normalize
	// rejects a larger grid before Cells would try to allocate it.
	maxGridCells = 1 << 16

	// repeatSeedStride derives repeat r's generation seed as
	// base + r*stride: distinct repeats draw distinct generation
	// randomness while staying a pure function of the spec.
	repeatSeedStride = 1_000_003
)

// GridSpec is the experiments.json schema: the full cross product
// generators × sizes × seeds × repeats evaluated by the grid runner. Each
// cell is one csbd spec (CellSpec); every cell shares the seed shape and
// one utility configuration.
type GridSpec struct {
	// Name labels the run in analysis.md and logs.
	Name string `json:"name,omitempty"`
	// SeedHosts and SeedSessions size the seed trace of every cell; the
	// cell's generation seed draws it.
	SeedHosts    int `json:"seed_hosts,omitempty"`
	SeedSessions int `json:"seed_sessions,omitempty"`
	// Generators, Sizes, Seeds and Repeats span the grid.
	Generators []GeneratorSpec `json:"generators"`
	Sizes      []int64         `json:"sizes"`
	Seeds      []uint64        `json:"seeds,omitempty"`
	Repeats    int             `json:"repeats,omitempty"`
	// PageRankPoints resamples the PageRank profiles (Options).
	PageRankPoints int `json:"pagerank_points,omitempty"`
	// Utility configures the utility metric shared by every cell.
	Utility UtilityConfig `json:"utility,omitempty"`
}

// ParseGrid decodes and normalizes a JSON grid spec.
func ParseGrid(r io.Reader) (*GridSpec, error) {
	var sp GridSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("eval: parsing grid spec: %w", err)
	}
	if err := sp.Normalize(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Normalize fills defaults and validates the spec in place; the normalized
// spec is what Canonical serializes and ID hashes.
func (sp *GridSpec) Normalize() error {
	if sp.Name == "" {
		sp.Name = "grid"
	}
	if len(sp.Generators) == 0 {
		return fmt.Errorf("eval: at least one generator is required")
	}
	if len(sp.Sizes) == 0 {
		return fmt.Errorf("eval: at least one size is required")
	}
	if len(sp.Seeds) == 0 {
		sp.Seeds = []uint64{1}
	}
	if sp.Repeats == 0 {
		sp.Repeats = DefaultRepeats
	}
	if sp.Repeats < 0 {
		return fmt.Errorf("eval: repeats must be positive, got %d", sp.Repeats)
	}
	cells := 1
	for _, n := range []int{len(sp.Generators), len(sp.Sizes), len(sp.Seeds), sp.Repeats} {
		if n > maxGridCells/cells {
			return fmt.Errorf("eval: grid spans more than %d cells", maxGridCells)
		}
		cells *= n
	}
	if sp.PageRankPoints == 0 {
		sp.PageRankPoints = DefaultPageRankPoints
	}
	if sp.PageRankPoints < 2 {
		return fmt.Errorf("eval: pagerank_points must be at least 2, got %d", sp.PageRankPoints)
	}
	// Every generator at every size is a csbd spec, validated and given
	// its defaults by serve.Spec.Normalize alone.
	for i := range sp.Generators {
		g := &sp.Generators[i]
		for _, size := range sp.Sizes {
			s, err := sp.CellSpec(&Cell{Generator: *g, Size: size})
			if err != nil {
				return fmt.Errorf("eval: generator %d at size %d: %w", i, size, err)
			}
			g.Name, g.Fraction = s.Generator, s.Fraction
			sp.SeedHosts, sp.SeedSessions = s.Hosts, s.Sessions
		}
	}
	if err := NormalizeUtility(&sp.Utility); err != nil {
		return err
	}
	for _, seed := range sp.Seeds {
		for rep := 0; rep < sp.Repeats; rep++ {
			if c := (Cell{BaseSeed: seed, Repeat: rep}); c.GenSeed() == sp.Utility.HeldOutSeed {
				return fmt.Errorf("eval: seed %d repeat %d generates at the held-out seed %d", seed, rep, sp.Utility.HeldOutSeed)
			}
		}
	}
	return nil
}

// Cell is one grid coordinate: a generator at a size with a base seed and a
// repeat index.
type Cell struct {
	Index     int           `json:"index"`
	Generator GeneratorSpec `json:"generator"`
	Size      int64         `json:"size"`
	BaseSeed  uint64        `json:"base_seed"`
	Repeat    int           `json:"repeat"`
}

// GenSeed is the generation seed of the cell: repeats shift the base seed
// by a fixed stride so each repeat draws a distinct RNG stream.
func (c *Cell) GenSeed() uint64 {
	return c.BaseSeed + uint64(c.Repeat)*repeatSeedStride
}

// CellSpec is the normalized csbd spec whose artifact cell c scores: the
// grid's seed shape, the cell's generator and size, format csbg, and
// GenSeed as Spec.Seed, which draws the seed trace and the generation
// alike. Generators at the same seed and repeat therefore grow from one
// trace, and csbd or csbgen serve the cell's graph for the spec's ID.
func (sp *GridSpec) CellSpec(c *Cell) (serve.Spec, error) {
	s := serve.Spec{
		Generator: c.Generator.Name, Fraction: c.Generator.Fraction,
		Hosts: sp.SeedHosts, Sessions: sp.SeedSessions,
		Seed: c.GenSeed(), Edges: c.Size, Format: serve.FormatCSBG,
	}
	return s, s.Normalize()
}

// Display renders the cell for logs.
func (c *Cell) Display() string {
	return fmt.Sprintf("%s size=%d seed=%d rep=%d", c.Generator.Display(), c.Size, c.BaseSeed, c.Repeat)
}

// Cells enumerates the grid in its canonical order — generators outermost,
// then sizes, seeds, repeats — which is also the row order of results.csv.
func (sp *GridSpec) Cells() []Cell {
	out := make([]Cell, 0, len(sp.Generators)*len(sp.Sizes)*len(sp.Seeds)*sp.Repeats)
	for _, g := range sp.Generators {
		for _, size := range sp.Sizes {
			for _, seed := range sp.Seeds {
				for rep := 0; rep < sp.Repeats; rep++ {
					out = append(out, Cell{
						Index: len(out), Generator: g, Size: size,
						BaseSeed: seed, Repeat: rep,
					})
				}
			}
		}
	}
	return out
}

// Canonical returns the canonical serialization of the normalized spec, the
// preimage of ID — one key=value line per field, like scenario.Spec.
func (sp *GridSpec) Canonical() string {
	var b strings.Builder
	b.WriteString("csb-evalgrid/v2\n")
	b.WriteString("name=" + sp.Name + "\n")
	b.WriteString("seed.hosts=" + strconv.Itoa(sp.SeedHosts) + "\n")
	b.WriteString("seed.sessions=" + strconv.Itoa(sp.SeedSessions) + "\n")
	for i, g := range sp.Generators {
		p := "gen." + strconv.Itoa(i) + "."
		b.WriteString(p + "name=" + g.Name + "\n")
		b.WriteString(p + "fraction=" + strconv.FormatFloat(g.Fraction, 'x', -1, 64) + "\n")
	}
	for i, s := range sp.Sizes {
		b.WriteString("size." + strconv.Itoa(i) + "=" + strconv.FormatInt(s, 10) + "\n")
	}
	for i, s := range sp.Seeds {
		b.WriteString("seed." + strconv.Itoa(i) + "=" + strconv.FormatUint(s, 10) + "\n")
	}
	b.WriteString("repeats=" + strconv.Itoa(sp.Repeats) + "\n")
	b.WriteString("pagerank_points=" + strconv.Itoa(sp.PageRankPoints) + "\n")
	u := &sp.Utility
	b.WriteString("utility.heldout_seed=" + strconv.FormatUint(u.HeldOutSeed, 10) + "\n")
	b.WriteString("utility.heldout_hosts=" + strconv.Itoa(u.HeldOutHosts) + "\n")
	b.WriteString("utility.heldout_sessions=" + strconv.Itoa(u.HeldOutSessions) + "\n")
	b.WriteString("utility.gap=" + strconv.FormatInt(u.GapMicros, 10) + "\n")
	b.WriteString("utility.particles=" + strconv.Itoa(u.Particles) + "\n")
	b.WriteString("utility.iterations=" + strconv.Itoa(u.Iterations) + "\n")
	for i := range u.Attacks {
		u.Attacks[i].WriteCanonical(&b, "utility.attack."+strconv.Itoa(i)+".")
	}
	return b.String()
}

// ID returns the content address of the grid: a SHA-256 over Canonical.
// The runner's default output stamp is a prefix of it, so one spec maps to
// one run directory.
func (sp *GridSpec) ID() string {
	sum := sha256.Sum256([]byte(sp.Canonical()))
	return hex.EncodeToString(sum[:])
}
