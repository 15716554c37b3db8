// Package serve is the dataset-generation service of csb: a stdlib-only
// net/http daemon (cmd/csbd) that accepts generation jobs, runs them on a
// bounded worker pool with per-job cancellation plumbed down through the
// cluster engine, and serves the resulting edge-list artifacts from a
// content-addressed, byte-budgeted cache.
//
// The unit of work is a Spec: the canonical parameter set of one generation
// (generator, synthetic-seed shape, RNG seed, target edge count, output
// format). The generators are bit-for-bit deterministic and the default
// engine placement is a constant (1 node x 1 core, see EngineShape), so an
// artifact is a pure function of its Spec on any host — which is what makes
// caching by Spec.ID sound, and what the csbgen CLI relies on when it prints
// the same artifact IDs for its own outputs. A daemon started with an
// explicit -nodes/-cores shape names different bytes under the same IDs.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"csb/internal/core"
	"csb/internal/scenario"
)

// Generator names accepted by Spec.Generator.
const (
	GenPGPBA = core.GenPGPBA
	GenPGSK  = core.GenPGSK
	// GenScenario is the labeled attack-scenario job kind: the spec embeds a
	// scenario.Spec and the artifact is a CSBF1+CSBL1 labeled flow set.
	GenScenario = "scenario"
)

// Artifact output formats accepted by Spec.Format.
const (
	// FormatTSV is the tab-separated edge list of Graph.AppendEdgeList —
	// byte-identical to `csbgen -edgelist-out`.
	FormatTSV = "tsv"
	// FormatCSBG is the binary CSBG container of Graph.Write —
	// byte-identical to `csbgen -out`.
	FormatCSBG = "csbg"
	// FormatCSV is the Netflow-record CSV of the graph's flows.
	FormatCSV = "csv"
	// FormatNDJSON is one JSON object per flow edge, newline-delimited.
	FormatNDJSON = "ndjson"
	// FormatCSBF is the binary labeled flow artifact of scenario jobs: a
	// CSBF1 flow section followed by a CSBL1 label section — byte-identical
	// to `csbgen -scenario`. Scenario jobs only.
	FormatCSBF = "csbf"
)

// Spec is the canonical description of one generation job. It is the wire
// format of POST /v1/jobs and the input to the artifact content address: two
// specs with equal normalized fields name the same artifact.
type Spec struct {
	// Generator selects pgpba or pgsk.
	Generator string `json:"generator"`
	// Hosts and Sessions size the synthetic seed trace (Figure 1 pipeline).
	Hosts    int `json:"hosts,omitempty"`
	Sessions int `json:"sessions,omitempty"`
	// Seed drives every RNG in the pipeline.
	Seed uint64 `json:"seed"`
	// Fraction is the PGPBA per-round growth fraction in (0, 1]. Ignored
	// (and normalized away) for PGSK.
	Fraction float64 `json:"fraction,omitempty"`
	// Edges is the desired edge count of the synthetic graph.
	Edges int64 `json:"edges"`
	// Format selects the artifact encoding: tsv, csbg, csv or ndjson
	// (csbf for scenario jobs).
	Format string `json:"format,omitempty"`
	// Scenario, when set, makes this a scenario job: the artifact is the
	// labeled flow set the embedded spec compiles to. The flat generator
	// knobs above are normalized away — a scenario job's identity is the
	// scenario's own content address.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
}

// Defaults applied by Normalize to zero-valued fields.
const (
	DefaultHosts    = 100
	DefaultSessions = 2000
	DefaultFraction = 0.1
)

// Normalize fills defaults and validates the spec in place. It is the single
// validation point shared by the daemon and the csbgen CLI, so invalid
// parameters (zero or negative target size, Fraction outside (0, 1], NaN)
// fail fast with an error instead of silently producing empty output. The
// normalized spec is what Spec.ID hashes.
func (s *Spec) Normalize() error {
	if s.Scenario != nil {
		s.Generator = GenScenario
	}
	if s.Generator == GenScenario {
		if s.Scenario == nil {
			return fmt.Errorf("spec: generator %q requires an embedded scenario", GenScenario)
		}
		if err := s.Scenario.Normalize(); err != nil {
			return err
		}
		// The embedded scenario fully describes the job; the flat knobs must
		// not differentiate artifact identities.
		s.Hosts, s.Sessions, s.Seed, s.Fraction, s.Edges = 0, 0, 0, 0, 0
		if s.Format == "" {
			s.Format = FormatCSBF
		}
		if s.Format != FormatCSBF {
			return fmt.Errorf("spec: scenario jobs produce %s artifacts, got format %q", FormatCSBF, s.Format)
		}
		return nil
	}
	if s.Generator == "" {
		s.Generator = GenPGPBA
	}
	switch s.Generator {
	case GenPGPBA, GenPGSK:
	default:
		return fmt.Errorf("spec: unknown generator %q (want %s, %s or %s)", s.Generator, GenPGPBA, GenPGSK, GenScenario)
	}
	if s.Hosts == 0 {
		s.Hosts = DefaultHosts
	}
	if s.Hosts < 0 {
		return fmt.Errorf("spec: hosts must be positive, got %d", s.Hosts)
	}
	if s.Sessions == 0 {
		s.Sessions = DefaultSessions
	}
	if s.Sessions < 0 {
		return fmt.Errorf("spec: sessions must be positive, got %d", s.Sessions)
	}
	if s.Edges <= 0 {
		return fmt.Errorf("spec: edges must be positive, got %d", s.Edges)
	}
	switch s.Generator {
	case GenPGPBA:
		if s.Fraction == 0 {
			s.Fraction = DefaultFraction
		}
		if math.IsNaN(s.Fraction) || s.Fraction <= 0 || s.Fraction > 1 {
			return fmt.Errorf("spec: fraction must be in (0, 1], got %v", s.Fraction)
		}
	case GenPGSK:
		// Fraction does not participate in PGSK, so it must not
		// differentiate artifact identities.
		s.Fraction = 0
	}
	if s.Format == "" {
		s.Format = FormatTSV
	}
	switch s.Format {
	case FormatTSV, FormatCSBG, FormatCSV, FormatNDJSON:
	default:
		return fmt.Errorf("spec: unknown format %q (want %s, %s, %s or %s)",
			s.Format, FormatTSV, FormatCSBG, FormatCSV, FormatNDJSON)
	}
	return nil
}

// ID returns the content address of the spec's artifact: a SHA-256 over a
// canonical serialization of the normalized fields. The float is hashed in
// its exact hexadecimal form, so identities never depend on decimal
// formatting. CLI and daemon share this function, which is what makes their
// artifact identities agree.
func (s Spec) ID() string {
	var b strings.Builder
	b.WriteString("csbd-spec/v1\n")
	b.WriteString("generator=" + s.Generator + "\n")
	b.WriteString("hosts=" + strconv.Itoa(s.Hosts) + "\n")
	b.WriteString("sessions=" + strconv.Itoa(s.Sessions) + "\n")
	b.WriteString("seed=" + strconv.FormatUint(s.Seed, 10) + "\n")
	b.WriteString("fraction=" + strconv.FormatFloat(s.Fraction, 'x', -1, 64) + "\n")
	b.WriteString("edges=" + strconv.FormatInt(s.Edges, 10) + "\n")
	b.WriteString("format=" + s.Format + "\n")
	if s.Scenario != nil {
		// Folding the scenario's own content address in keeps the flat-spec
		// preimage unchanged for every pre-existing job kind.
		b.WriteString("scenario=" + s.Scenario.ID() + "\n")
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// ContentType returns the HTTP content type of the spec's artifact format.
func (s Spec) ContentType() string {
	switch s.Format {
	case FormatCSBG, FormatCSBF:
		return "application/octet-stream"
	case FormatCSV:
		return "text/csv; charset=utf-8"
	case FormatNDJSON:
		return "application/x-ndjson"
	default:
		return "text/tab-separated-values; charset=utf-8"
	}
}
