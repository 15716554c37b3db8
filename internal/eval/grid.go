package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"csb/internal/core"
)

// Generator names accepted by GeneratorSpec.Name.
const (
	GenPGPBA = core.GenPGPBA
	GenPGSK  = core.GenPGSK
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

// Grid defaults applied by Normalize.
const (
	DefaultSeedHosts      = 100
	DefaultSeedSessions   = 2000
	DefaultSeedTraceSeed  = 20171010
	DefaultRepeats        = 1
	DefaultPageRankPoints = 100

	// repeatSeedStride derives repeat r's generation seed as
	// base + r*stride: distinct repeats draw distinct generation
	// randomness while staying a pure function of the spec.
	repeatSeedStride = 1_000_003
)

// GridSpec is the experiments.json schema: the full cross product
// generators × sizes × seeds × repeats evaluated by the grid runner. Every
// cell shares one seed trace (SeedHosts/SeedSessions/SeedTraceSeed) and one
// utility configuration.
type GridSpec struct {
	// Name labels the run in analysis.md and logs.
	Name string `json:"name,omitempty"`
	// SeedHosts, SeedSessions and SeedTraceSeed build the shared seed trace
	// every cell grows from and is scored against.
	SeedHosts     int    `json:"seed_hosts,omitempty"`
	SeedSessions  int    `json:"seed_sessions,omitempty"`
	SeedTraceSeed uint64 `json:"seed_trace_seed,omitempty"`
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
	if sp.SeedHosts == 0 {
		sp.SeedHosts = DefaultSeedHosts
	}
	if sp.SeedHosts < 0 {
		return fmt.Errorf("eval: seed_hosts must be positive, got %d", sp.SeedHosts)
	}
	if sp.SeedSessions == 0 {
		sp.SeedSessions = DefaultSeedSessions
	}
	if sp.SeedSessions < 0 {
		return fmt.Errorf("eval: seed_sessions must be positive, got %d", sp.SeedSessions)
	}
	if sp.SeedTraceSeed == 0 {
		sp.SeedTraceSeed = DefaultSeedTraceSeed
	}
	if len(sp.Generators) == 0 {
		return fmt.Errorf("eval: at least one generator is required")
	}
	for i := range sp.Generators {
		g := &sp.Generators[i]
		switch g.Name {
		case GenPGSK:
			g.Fraction = 0
		case GenPGPBA:
			if g.Fraction == 0 {
				g.Fraction = 0.1
			}
			if math.IsNaN(g.Fraction) || g.Fraction <= 0 || g.Fraction > 1 {
				return fmt.Errorf("eval: generator %d: fraction must be in (0, 1], got %v", i, g.Fraction)
			}
		default:
			return fmt.Errorf("eval: generator %d: unknown name %q (want %s or %s)", i, g.Name, GenPGPBA, GenPGSK)
		}
	}
	if len(sp.Sizes) == 0 {
		return fmt.Errorf("eval: at least one size is required")
	}
	for i, s := range sp.Sizes {
		if s <= 0 {
			return fmt.Errorf("eval: size %d: must be positive, got %d", i, s)
		}
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
	if sp.PageRankPoints == 0 {
		sp.PageRankPoints = DefaultPageRankPoints
	}
	if sp.PageRankPoints < 2 {
		return fmt.Errorf("eval: pagerank_points must be at least 2, got %d", sp.PageRankPoints)
	}
	return NormalizeUtility(&sp.Utility)
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
	b.WriteString("csb-evalgrid/v1\n")
	b.WriteString("name=" + sp.Name + "\n")
	b.WriteString("seed.hosts=" + strconv.Itoa(sp.SeedHosts) + "\n")
	b.WriteString("seed.sessions=" + strconv.Itoa(sp.SeedSessions) + "\n")
	b.WriteString("seed.trace_seed=" + strconv.FormatUint(sp.SeedTraceSeed, 10) + "\n")
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
