package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csb/internal/graph"
	"csb/internal/netflow"
	"csb/internal/pcap"
)

func TestRunSynthesizeWritesEverything(t *testing.T) {
	dir := t.TempDir()
	pcapPath := filepath.Join(dir, "t.pcap")
	csvPath := filepath.Join(dir, "t.csv")
	v5Path := filepath.Join(dir, "t.nf5")
	graphPath := filepath.Join(dir, "t.csbg")
	listPath := filepath.Join(dir, "t.tsv")

	var out bytes.Buffer
	err := run([]string{
		"-hosts", "10", "-sessions", "100", "-seed", "7",
		"-pcap-out", pcapPath, "-flows-out", csvPath, "-v5-out", v5Path,
		"-graph-out", graphPath, "-edgelist-out", listPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "seed graph: 10 vertices") {
		t.Fatalf("output: %q", out.String())
	}

	// Every artifact must be readable by its own loader.
	pf, err := os.Open(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := pcap.ReadTrace(pf)
	pf.Close()
	if err != nil || len(pkts) == 0 {
		t.Fatalf("pcap: %v, %d packets", err, len(pkts))
	}
	cf, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := netflow.ReadCSV(cf)
	cf.Close()
	if err != nil || len(flows) == 0 {
		t.Fatalf("csv: %v, %d flows", err, len(flows))
	}
	vf, err := os.Open(v5Path)
	if err != nil {
		t.Fatal(err)
	}
	unis, err := netflow.ReadV5(vf)
	vf.Close()
	if err != nil || len(unis) == 0 {
		t.Fatalf("v5: %v, %d records", err, len(unis))
	}
	gf, err := os.Open(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Read(gf)
	gf.Close()
	if err != nil || g.NumVertices() != 10 {
		t.Fatalf("graph: %v", err)
	}
	lst, err := os.ReadFile(listPath)
	if err != nil || !bytes.Contains(lst, []byte("src\tdst")) {
		t.Fatalf("edge list: %v", err)
	}
}

func TestRunRoundTripThroughPCAPInput(t *testing.T) {
	dir := t.TempDir()
	pcapPath := filepath.Join(dir, "in.pcap")
	var out bytes.Buffer
	if err := run([]string{"-hosts", "8", "-sessions", "50", "-pcap-out", pcapPath}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-pcap-in", pcapPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "read ") || !strings.Contains(out.String(), "seed graph: 8 vertices") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-pcap-in", "/nonexistent/file.pcap"}, &out); err == nil {
		t.Error("missing input accepted")
	}
	if err := run([]string{"-hosts", "1"}, &out); err == nil {
		t.Error("invalid trace config accepted")
	}
	// 2^25 hosts overrun the trace's 10.0.0.0/8 address plan.
	if err := run([]string{"-hosts", "33554432"}, &out); err == nil || !strings.Contains(err.Error(), "address plan") {
		t.Errorf("-hosts 33554432: err = %v, want the address-plan error", err)
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-graph-out", "/nonexistent/dir/x.csbg"}, &out); err == nil {
		t.Error("unwritable output accepted")
	}
}
