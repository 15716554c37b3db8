// Package scenario is the labeled attack-scenario layer: a small JSON spec
// describing background traffic plus a composable list of attack injections
// that compiles deterministically into a labeled flow set
// (attack.Scenario), and a label-bearing artifact format (CSBL1 appended to
// a CSBF1 flow section) so the ground truth survives serialization and
// replay. The same spec compiled anywhere — csbgen, a csbd scenario job, or
// csbreplay — yields byte-identical labeled artifacts, which is what turns
// the repo's generators into a detection-quality benchmark: stream the
// artifact, run the detector, score the alerts against the labels with
// attack.Score.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"csb/internal/attack"
	"csb/internal/core"
	"csb/internal/graph"
	"csb/internal/ids"
)

// Background sources accepted by Background.Source.
const (
	// SourceTrace assembles flows from a synthetic packet trace (the
	// Figure 1 pipeline), carrying a real timeline.
	SourceTrace = "trace"
	// SourcePGPBA and SourcePGSK generate a property graph on the cluster
	// engine and project its flows, with a synthetic timeline (GapMicros
	// between flow starts). These backgrounds exercise the fault/retry
	// machinery: the generation runs on whatever cluster the caller
	// provides, chaos plan included.
	SourcePGPBA = core.GenPGPBA
	SourcePGSK  = core.GenPGSK
)

// Attack type names accepted by Attack.Type (ids.AttackType.String values).
const (
	TypeHostScan    = "host-scan"
	TypeNetworkScan = "network-scan"
	TypeSYNFlood    = "syn-flood"
	TypeFlood       = "flood"
	TypeDDoS        = "ddos"
)

// Defaults applied by Normalize to zero-valued fields.
const (
	DefaultHosts     = 100
	DefaultSessions  = 2000
	DefaultEdges     = 20000
	DefaultFraction  = 0.1
	DefaultGapMicros = 1000

	// DefaultAttacker is 198.51.100.1 (TEST-NET-2): an address outside both
	// the 10.x synthetic host pool and the injectors' spoofed ranges.
	DefaultAttacker = uint32(0xc6336401)
	// DefaultVictim is 10.0.0.1, the first synthetic trace host
	// (pcap.HostIP(0)).
	DefaultVictim = uint32(0x0a000001)
	// DefaultScanBase is 10.1.0.0, the base address of a network scan's
	// victim range (victims are base+1 .. base+count).
	DefaultScanBase = uint32(0x0a010000)
)

// Background describes the benign traffic an attack list is mixed into.
type Background struct {
	// Source selects trace (default), pgpba or pgsk.
	Source string `json:"source,omitempty"`
	// Hosts and Sessions size the synthetic seed trace.
	Hosts    int `json:"hosts,omitempty"`
	Sessions int `json:"sessions,omitempty"`
	// Edges is the generated edge count (generator sources only).
	Edges int64 `json:"edges,omitempty"`
	// Fraction is the PGPBA growth fraction in (0, 1] (pgpba only).
	Fraction float64 `json:"fraction,omitempty"`
	// GapMicros spaces the synthetic timeline of generator-projected flows
	// (they carry no start times of their own).
	GapMicros int64 `json:"gap_micros,omitempty"`
}

// Attack is one injection: an attack type plus its timing, intensity and
// per-attack RNG stream.
type Attack struct {
	// Type names the injection: host-scan, network-scan, syn-flood, flood
	// or ddos.
	Type string `json:"type"`
	// StartMS offsets the attack from the scenario timeline base, in
	// milliseconds.
	StartMS int64 `json:"start_ms,omitempty"`
	// Seed selects the attack's RNG stream (0 defaults to its position in
	// the list + 1, so every attack gets a distinct stream).
	Seed uint64 `json:"seed,omitempty"`
	// Attacker and Victim address the endpoints; unused by some types
	// (syn-flood spoofs attackers, ddos has many) and normalized away
	// there. For network-scan, Victim is the base address of the scanned
	// range.
	Attacker uint32 `json:"attacker,omitempty"`
	Victim   uint32 `json:"victim,omitempty"`
	// Count is the attack width: ports probed (host-scan, max 65535), hosts
	// probed (network-scan), flood flows (syn-flood, flood) or sources
	// (ddos).
	Count int `json:"count,omitempty"`
	// Port is the targeted service port (network-scan, syn-flood).
	Port uint16 `json:"port,omitempty"`
	// FlowsPerSource sizes each ddos source's contribution.
	FlowsPerSource int `json:"flows_per_source,omitempty"`
	// Proto selects the flood protocol: tcp, udp or icmp.
	Proto string `json:"proto,omitempty"`
}

// Spec is the canonical description of one labeled scenario: the unit of
// work of `csbgen -scenario` and csbd scenario jobs, and the input to the
// artifact content address.
type Spec struct {
	// Seed drives every RNG in the compilation (background and attacks).
	Seed       uint64     `json:"seed"`
	Background Background `json:"background"`
	Attacks    []Attack   `json:"attacks"`
}

// Parse decodes and normalizes a JSON spec.
func Parse(r io.Reader) (*Spec, error) {
	var sp Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if err := sp.Normalize(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Normalize fills defaults and validates the spec in place, zeroing fields
// the attack type does not use so they cannot differentiate artifact
// identities. It is the single validation point shared by csbgen, csbd and
// csbreplay; the normalized spec is what ID hashes.
func (sp *Spec) Normalize() error {
	b := &sp.Background
	if b.Source == "" {
		b.Source = SourceTrace
	}
	switch b.Source {
	case SourceTrace, SourcePGPBA, SourcePGSK:
	default:
		return fmt.Errorf("scenario: unknown background source %q (want %s, %s or %s)",
			b.Source, SourceTrace, SourcePGPBA, SourcePGSK)
	}
	if b.Hosts == 0 {
		b.Hosts = DefaultHosts
	}
	if b.Hosts < 0 {
		return fmt.Errorf("scenario: background hosts must be positive, got %d", b.Hosts)
	}
	if b.Sessions == 0 {
		b.Sessions = DefaultSessions
	}
	if b.Sessions < 0 {
		return fmt.Errorf("scenario: background sessions must be positive, got %d", b.Sessions)
	}
	switch b.Source {
	case SourceTrace:
		// Trace backgrounds carry their own timeline and target no edge
		// count; the generator knobs must not differentiate identities.
		b.Edges, b.Fraction, b.GapMicros = 0, 0, 0
	default:
		if b.Edges == 0 {
			b.Edges = DefaultEdges
		}
		if b.Edges < 0 {
			return fmt.Errorf("scenario: background edges must be positive, got %d", b.Edges)
		}
		if b.GapMicros == 0 {
			b.GapMicros = DefaultGapMicros
		}
		if b.GapMicros < 0 {
			return fmt.Errorf("scenario: background gap_micros must be positive, got %d", b.GapMicros)
		}
		if b.Source == SourcePGPBA {
			if b.Fraction == 0 {
				b.Fraction = DefaultFraction
			}
			if math.IsNaN(b.Fraction) || b.Fraction <= 0 || b.Fraction > 1 {
				return fmt.Errorf("scenario: background fraction must be in (0, 1], got %v", b.Fraction)
			}
		} else {
			b.Fraction = 0
		}
	}
	if len(sp.Attacks) == 0 {
		return fmt.Errorf("scenario: at least one attack is required")
	}
	for i := range sp.Attacks {
		if err := normalizeAttack(&sp.Attacks[i], i); err != nil {
			return err
		}
	}
	return nil
}

// normalizeAttack validates one attack entry and zeroes the fields its type
// does not use.
func normalizeAttack(a *Attack, i int) error {
	if a.StartMS < 0 {
		return fmt.Errorf("scenario: attack %d: start_ms must be non-negative, got %d", i, a.StartMS)
	}
	if a.Count < 0 {
		return fmt.Errorf("scenario: attack %d: count must be positive, got %d", i, a.Count)
	}
	if a.Seed == 0 {
		a.Seed = uint64(i) + 1
	}
	switch a.Type {
	case TypeHostScan:
		if a.Count == 0 {
			a.Count = 200
		}
		if a.Count > attack.MaxScanPorts {
			return fmt.Errorf("scenario: attack %d: host-scan count %d exceeds the %d distinct TCP ports",
				i, a.Count, attack.MaxScanPorts)
		}
		if a.Attacker == 0 {
			a.Attacker = DefaultAttacker
		}
		if a.Victim == 0 {
			a.Victim = DefaultVictim
		}
		a.Port, a.FlowsPerSource, a.Proto = 0, 0, ""
	case TypeNetworkScan:
		if a.Count == 0 {
			a.Count = 50
		}
		if a.Attacker == 0 {
			a.Attacker = DefaultAttacker
		}
		if a.Victim == 0 {
			a.Victim = DefaultScanBase
		}
		if a.Port == 0 {
			a.Port = 22
		}
		a.FlowsPerSource, a.Proto = 0, ""
	case TypeSYNFlood:
		if a.Count == 0 {
			a.Count = 300
		}
		if a.Victim == 0 {
			a.Victim = DefaultVictim
		}
		if a.Port == 0 {
			a.Port = 80
		}
		a.Attacker, a.FlowsPerSource, a.Proto = 0, 0, "" // sources are spoofed
	case TypeFlood:
		if a.Count == 0 {
			a.Count = 40
		}
		if a.Attacker == 0 {
			a.Attacker = DefaultAttacker
		}
		if a.Victim == 0 {
			a.Victim = DefaultVictim
		}
		if a.Proto == "" {
			a.Proto = "udp"
		}
		if _, err := floodProto(a.Proto); err != nil {
			return fmt.Errorf("scenario: attack %d: %w", i, err)
		}
		a.Port, a.FlowsPerSource = 0, 0
	case TypeDDoS:
		if a.Count == 0 {
			a.Count = 30
		}
		if a.FlowsPerSource == 0 {
			a.FlowsPerSource = 5
		}
		if a.FlowsPerSource < 0 {
			return fmt.Errorf("scenario: attack %d: flows_per_source must be positive, got %d", i, a.FlowsPerSource)
		}
		if a.Victim == 0 {
			a.Victim = DefaultVictim
		}
		a.Attacker, a.Port, a.Proto = 0, 0, "" // many sources
	default:
		return fmt.Errorf("scenario: attack %d: unknown type %q (want %s, %s, %s, %s or %s)",
			i, a.Type, TypeHostScan, TypeNetworkScan, TypeSYNFlood, TypeFlood, TypeDDoS)
	}
	return nil
}

// floodProto maps a spec protocol name onto the graph protocol enum.
func floodProto(name string) (graph.Protocol, error) {
	switch name {
	case "tcp":
		return graph.ProtoTCP, nil
	case "udp":
		return graph.ProtoUDP, nil
	case "icmp":
		return graph.ProtoICMP, nil
	default:
		return 0, fmt.Errorf("unknown flood proto %q (want tcp, udp or icmp)", name)
	}
}

// attackTypeOf maps a spec type name onto the detector's enum; Normalize
// guarantees the name is known.
func attackTypeOf(name string) ids.AttackType {
	switch name {
	case TypeHostScan:
		return ids.AttackHostScan
	case TypeNetworkScan:
		return ids.AttackNetworkScan
	case TypeSYNFlood:
		return ids.AttackSYNFlood
	case TypeFlood:
		return ids.AttackFlood
	case TypeDDoS:
		return ids.AttackDDoS
	default:
		return ids.AttackNone
	}
}

// Canonical returns the canonical serialization of the normalized spec: the
// preimage of ID. Every normalized field appears as one key=value line, so
// two specs serialize identically exactly when they compile identically.
func (sp *Spec) Canonical() string {
	var b strings.Builder
	b.WriteString("csb-scenario/v1\n")
	b.WriteString("seed=" + strconv.FormatUint(sp.Seed, 10) + "\n")
	bg := &sp.Background
	b.WriteString("bg.source=" + bg.Source + "\n")
	b.WriteString("bg.hosts=" + strconv.Itoa(bg.Hosts) + "\n")
	b.WriteString("bg.sessions=" + strconv.Itoa(bg.Sessions) + "\n")
	b.WriteString("bg.edges=" + strconv.FormatInt(bg.Edges, 10) + "\n")
	// The float is hashed in its exact hexadecimal form, like serve.Spec.ID.
	b.WriteString("bg.fraction=" + strconv.FormatFloat(bg.Fraction, 'x', -1, 64) + "\n")
	b.WriteString("bg.gap=" + strconv.FormatInt(bg.GapMicros, 10) + "\n")
	for i := range sp.Attacks {
		sp.Attacks[i].WriteCanonical(&b, "attack."+strconv.Itoa(i)+".")
	}
	return b.String()
}

// WriteCanonical writes the attack's normalized fields as key=value lines
// under prefix p: the attack's share of every preimage that embeds one
// (Spec.Canonical here, the evaluation grid's utility attacks).
func (a *Attack) WriteCanonical(b *strings.Builder, p string) {
	b.WriteString(p + "type=" + a.Type + "\n")
	b.WriteString(p + "start_ms=" + strconv.FormatInt(a.StartMS, 10) + "\n")
	b.WriteString(p + "seed=" + strconv.FormatUint(a.Seed, 10) + "\n")
	b.WriteString(p + "attacker=" + strconv.FormatUint(uint64(a.Attacker), 10) + "\n")
	b.WriteString(p + "victim=" + strconv.FormatUint(uint64(a.Victim), 10) + "\n")
	b.WriteString(p + "count=" + strconv.Itoa(a.Count) + "\n")
	b.WriteString(p + "port=" + strconv.Itoa(int(a.Port)) + "\n")
	b.WriteString(p + "fps=" + strconv.Itoa(a.FlowsPerSource) + "\n")
	b.WriteString(p + "proto=" + a.Proto + "\n")
}

// ID returns the content address of the spec's labeled artifact: a SHA-256
// over Canonical. csbgen, csbd and csbreplay share this function, which is
// what makes their artifact identities agree.
func (sp *Spec) ID() string {
	sum := sha256.Sum256([]byte(sp.Canonical()))
	return hex.EncodeToString(sum[:])
}
