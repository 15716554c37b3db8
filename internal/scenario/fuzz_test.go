package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"testing"

	"csb/internal/attack"
	"csb/internal/replay"
)

// fuzzScenario is a small labeled scenario used to seed the corpora.
func fuzzScenario(t testing.TB) *attack.Scenario {
	t.Helper()
	sc := attack.NewScenario(nil)
	rng := rand.New(rand.NewPCG(1, 1))
	sc.InjectHostScan(rng, 0xbad00001, 0x0a000002, 8, 1000)
	sc.InjectSYNFlood(rng, 0x0a000003, 80, 5, 5000)
	sc.Finish()
	return sc
}

// expectTyped fails the fuzz run if err is not one of the contract errors:
// ErrCorruptLabels / replay.ErrCorruptStream for malformed bytes, io.EOF /
// io.ErrUnexpectedEOF for truncation.
func expectTyped(t *testing.T, err error) {
	t.Helper()
	if errors.Is(err, ErrCorruptLabels) || errors.Is(err, replay.ErrCorruptStream) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return
	}
	t.Fatalf("untyped decode error: %v", err)
}

// FuzzDecodeLabeled drives the labeled-artifact decoder (CSBF1 flow section
// + CSBL1 label section) over arbitrary bytes: it must terminate, never
// panic, and classify every failure as either corruption (typed) or
// truncation (io.EOF family). Successfully parsed artifacts must round-trip
// through EncodeLabeled.
func FuzzDecodeLabeled(f *testing.F) {
	seed := fuzzScenario(f)
	valid, err := EncodeLabeled(seed)
	if err != nil {
		f.Fatal(err)
	}
	flowSection := replay.FlowFileHeaderLen + len(seed.Flows)*replay.FlowRecordLen
	f.Add(valid)
	f.Add(valid[:flowSection])                // flows only, labels missing
	f.Add(valid[:flowSection+LabelHeaderLen]) // label records missing
	f.Add(valid[:len(valid)-1])               // truncated flow-attack map
	f.Add([]byte("CSBF1"))                    // short flow header
	badType := append([]byte(nil), valid...)
	badType[flowSection+LabelHeaderLen] = 200 // unknown attack type
	f.Add(badType)
	badIdx := append([]byte(nil), valid...)
	badIdx[len(badIdx)-1] = 0x7f // flow-attack index out of range
	f.Add(badIdx)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := DecodeLabeled(data)
		if err != nil {
			expectTyped(t, err)
			return
		}
		// Parsed successfully: encode-then-decode must be the identity on
		// the parsed scenario. (A full byte round trip is not promised —
		// the headers carry padding bytes and the artifact may have
		// trailing garbage the parser deliberately ignores.)
		out, err := EncodeLabeled(sc)
		if err != nil {
			t.Fatal(err)
		}
		again, err := DecodeLabeled(out)
		if err != nil {
			t.Fatalf("re-reading encoded artifact: %v", err)
		}
		if len(again.Flows) != len(sc.Flows) || len(again.Labels) != len(sc.Labels) {
			t.Fatalf("round trip changed counts: %d/%d vs %d/%d",
				len(again.Flows), len(again.Labels), len(sc.Flows), len(sc.Labels))
		}
		for i := range sc.Flows {
			if again.Flows[i] != sc.Flows[i] || again.FlowAttack[i] != sc.FlowAttack[i] {
				t.Fatalf("flow %d changed across round trip", i)
			}
		}
		for i := range sc.Labels {
			if again.Labels[i] != sc.Labels[i] {
				t.Fatalf("label %d changed across round trip", i)
			}
		}
	})
}

// FuzzReadLabels drives the standalone CSBL1 section parser under the same
// contract.
func FuzzReadLabels(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteLabels(&buf, fuzzScenario(f)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:LabelHeaderLen])
	f.Add(valid[:len(valid)-2])
	f.Add([]byte("CSBL1"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		labels, fa, err := ReadLabels(bytes.NewReader(data))
		if err != nil {
			expectTyped(t, err)
			return
		}
		for i, a := range fa {
			if a != attack.BackgroundFlow && int(a) >= len(labels) {
				t.Fatalf("flow %d references label %d of %d", i, a, len(labels))
			}
		}
	})
}

// FuzzParse drives the spec parser over arbitrary JSON: it must not panic,
// and an accepted spec is normalized for good — its ID survives a second
// Normalize and a JSON round trip, as the evaluation grid's does.
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"seed":7,"background":{"source":"pgpba","hosts":30,"sessions":400,"edges":20000},` +
		`"attacks":[{"type":"host-scan","start_ms":1000,"count":1200},{"type":"syn-flood","start_ms":65000,"count":1500,"victim":167772165}]}`))
	f.Add([]byte(`{"seed":1,"background":{},"attacks":[{"type":"network-scan","count":50,"port":22},` +
		`{"type":"ddos","count":4,"flows_per_source":10},{"type":"flood","proto":"udp","count":9,"attacker":1}]}`))
	f.Add([]byte(`{"seed":3,"background":{"source":"pgsk","edges":5000,"gap_micros":20,"fraction":0.5},"attacks":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		id := sp.ID()
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
		back, err := Parse(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-parsing the normalized spec: %v", err)
		}
		if back.ID() != id {
			t.Fatal("ID moved across a JSON round trip")
		}
	})
}
