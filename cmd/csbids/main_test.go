package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csb/internal/netflow"
	"csb/internal/pcap"
)

func TestRunDemoDetectsAttacks(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-demo", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"host-scan", "syn-flood", "ddos", "alerts"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunDemoStreaming(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-demo", "-stream", "-window-sec", "600", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[stream]") {
		t.Fatalf("no streaming alerts:\n%s", out.String())
	}
}

func TestRunOverFlowCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "flows.csv")
	flows, err := demoFlows(9, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := netflow.WriteCSV(f, flows); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if err := run([]string{"-flows", csvPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "alerts") {
		t.Fatalf("no alerts over CSV:\n%s", out.String())
	}
}

func TestRunOverGraphWithDefaults(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.csbg")
	flows, err := demoFlows(11, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	g := netflow.BuildGraph(flows)
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if err := run([]string{"-graph", graphPath, "-defaults"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "using default thresholds") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestRunQuietTraffic(t *testing.T) {
	// Clean traffic only: expect the no-anomalies message (or at most a
	// couple of borderline alerts, never an error).
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "clean.csv")
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(20, 200, 13))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := netflow.WriteCSV(f, netflow.Assemble(pkts, 0)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := run([]string{"-flows", csvPath}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no input source accepted")
	}
	if err := run([]string{"-graph", "/nonexistent.csbg"}, &out); err == nil {
		t.Error("missing graph accepted")
	}
	if err := run([]string{"-flows", "/nonexistent.csv"}, &out); err == nil {
		t.Error("missing CSV accepted")
	}
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}
