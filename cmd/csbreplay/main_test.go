package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"csb/internal/netflow"
	"csb/internal/pcap"
	"csb/internal/replay"
	"csb/internal/serve"
)

// writeTestCSV synthesizes a small trace and writes its flows as CSV,
// returning the path and the flows.
func writeTestCSV(t *testing.T) (string, []netflow.Flow) {
	t.Helper()
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(20, 300, 5))
	if err != nil {
		t.Fatal(err)
	}
	flows := netflow.Assemble(pkts, 0)
	path := filepath.Join(t.TempDir(), "flows.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := netflow.WriteCSV(f, flows); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, flows
}

// TestServeAndConsumeEndToEnd runs the binary's serve and consume paths
// against each other: two consumers subscribe, both receive every flow, and
// the raw payload bytes match the dataset's canonical encoding.
func TestServeAndConsumeEndToEnd(t *testing.T) {
	csvPath, flows := writeTestCSV(t)
	dir := t.TempDir()

	ready := make(chan string, 1)
	stop := make(chan struct{})
	defer close(stop)
	var serveOut bytes.Buffer
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- run([]string{
			"-flows", csvPath, "-addr", "127.0.0.1:0", "-wait", "2", "-wait-timeout", "30s",
		}, &serveOut, ready, stop)
	}()
	addr := <-ready

	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, 2)
	raws := make([]string, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		raws[i] = filepath.Join(dir, fmt.Sprintf("raw%d.bin", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run([]string{"-consume", addr, "-raw-out", raws[i]}, &outs[i], nil, nil)
		}(i)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	want := replay.EncodeFlows(flows) // Assemble sorts, so this is the canonical order
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("consume %d: %v\n%s", i, errs[i], outs[i].String())
		}
		got, err := os.ReadFile(raws[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("consumer %d payload bytes differ from dataset (%d vs %d bytes)", i, len(got), len(want))
		}
		if !strings.Contains(outs[i].String(), "clean=true") {
			t.Fatalf("consumer %d not clean:\n%s", i, outs[i].String())
		}
	}
	if !strings.Contains(serveOut.String(), "replay done") {
		t.Fatalf("serve output missing summary:\n%s", serveOut.String())
	}
}

// encodeStream hand-assembles the CSBS1 wire bytes for a run: header, one
// frame per flow with the rolling checksum, and the end frame. Scripted
// server tests use this to serve exact byte prefixes.
func encodeStream(flows []netflow.Flow) []byte {
	var buf bytes.Buffer
	hdr := replay.EncodeHeader(replay.Header{ArtifactSHA: [32]byte{1: 0xcb}, Flows: uint64(len(flows))})
	buf.Write(hdr[:])
	var crc uint32
	writeFrame := func(length uint32, seq uint64, payload []byte) {
		var pre [12]byte
		binary.BigEndian.PutUint32(pre[0:4], length)
		binary.BigEndian.PutUint64(pre[4:12], seq)
		buf.Write(pre[:])
		buf.Write(payload)
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		var sum [4]byte
		binary.BigEndian.PutUint32(sum[:], crc)
		buf.Write(sum[:])
	}
	for i := range flows {
		rec := replay.EncodeFlow(&flows[i])
		writeFrame(uint32(len(rec)), uint64(i), rec[:])
	}
	writeFrame(0, uint64(len(flows)), nil)
	return buf.Bytes()
}

// TestConsumeReconnectResumesSequence tears a stream mid-frame after three
// flows; the reconnecting consumer redials, the scripted server replays the
// run from zero (a restarted server's behavior), and the consumer must skip
// the already-delivered prefix: the raw output is byte-identical to an
// uninterrupted run, every flow delivered exactly once.
func TestConsumeReconnectResumesSequence(t *testing.T) {
	_, flows := writeTestCSV(t)
	if len(flows) < 6 {
		t.Fatalf("trace too small: %d flows", len(flows))
	}
	full := encodeStream(flows)
	const frameLen = replay.FlowRecordLen + 16 // len + seq + record + crc
	cut := replay.HeaderLen + 3*frameLen + 7   // mid-fourth-frame tear

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for _, script := range [][]byte{full[:cut], full} {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Write(script)
			c.Close()
		}
	}()

	rawPath := filepath.Join(t.TempDir(), "raw.bin")
	var out bytes.Buffer
	if err := run([]string{
		"-consume", ln.Addr().String(), "-reconnect", "3", "-raw-out", rawPath,
	}, &out, nil, nil); err != nil {
		t.Fatalf("consume: %v\n%s", err, out.String())
	}
	got, err := os.ReadFile(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := replay.EncodeFlows(flows); !bytes.Equal(got, want) {
		t.Fatalf("resumed payload %d bytes != uninterrupted run %d bytes", len(got), len(want))
	}
	for _, needle := range []string{
		"stream torn at seq 2",
		"clean=true",
		fmt.Sprintf("consumed %d/%d flows", len(flows), len(flows)),
	} {
		if !strings.Contains(out.String(), needle) {
			t.Fatalf("output missing %q:\n%s", needle, out.String())
		}
	}
}

// encodeBatchStream is encodeStream with batch framing: frames carry up to
// batchLen flows each.
func encodeBatchStream(flows []netflow.Flow, batchLen int) []byte {
	var buf bytes.Buffer
	hdr := replay.EncodeHeader(replay.Header{ArtifactSHA: [32]byte{1: 0xcb}, Flows: uint64(len(flows))})
	buf.Write(hdr[:])
	var crc uint32
	writeFrame := func(seq uint64, payload []byte) {
		var pre [12]byte
		binary.BigEndian.PutUint32(pre[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint64(pre[4:12], seq)
		buf.Write(pre[:])
		buf.Write(payload)
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		var sum [4]byte
		binary.BigEndian.PutUint32(sum[:], crc)
		buf.Write(sum[:])
	}
	for i := 0; i < len(flows); i += batchLen {
		j := i + batchLen
		if j > len(flows) {
			j = len(flows)
		}
		writeFrame(uint64(i), replay.EncodeFlows(flows[i:j]))
	}
	writeFrame(uint64(len(flows)), nil)
	return buf.Bytes()
}

// TestConsumeReconnectResumesAcrossBatchBoundary tears a v1-framed stream
// after six flows, then replays the run with 4-flow batch frames: the resume
// point (seq 5) falls inside the second batch, so the consumer must discard
// the already-delivered records of that batch and keep the rest. The raw
// output must still be byte-identical to an uninterrupted run.
func TestConsumeReconnectResumesAcrossBatchBoundary(t *testing.T) {
	_, flows := writeTestCSV(t)
	if len(flows) < 12 {
		t.Fatalf("trace too small: %d flows", len(flows))
	}
	v1 := encodeStream(flows)
	const frameLen = replay.FlowRecordLen + 16 // len + seq + record + crc
	cut := replay.HeaderLen + 6*frameLen + 7   // mid-seventh-frame tear: flows 0..5 delivered
	batched := encodeBatchStream(flows, 4)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for _, script := range [][]byte{v1[:cut], batched} {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Write(script)
			c.Close()
		}
	}()

	rawPath := filepath.Join(t.TempDir(), "raw.bin")
	var out bytes.Buffer
	if err := run([]string{
		"-consume", ln.Addr().String(), "-reconnect", "3", "-raw-out", rawPath,
	}, &out, nil, nil); err != nil {
		t.Fatalf("consume: %v\n%s", err, out.String())
	}
	got, err := os.ReadFile(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := replay.EncodeFlows(flows); !bytes.Equal(got, want) {
		t.Fatalf("resumed payload %d bytes != uninterrupted run %d bytes", len(got), len(want))
	}
	for _, needle := range []string{
		"stream torn at seq 5",
		"clean=true",
		fmt.Sprintf("consumed %d/%d flows", len(flows), len(flows)),
	} {
		if !strings.Contains(out.String(), needle) {
			t.Fatalf("output missing %q:\n%s", needle, out.String())
		}
	}
}

// TestConsumeReconnectBudgetExhausts: a server that tears every session
// without ever delivering a flow burns the whole budget and the consumer
// fails instead of redialing forever.
func TestConsumeReconnectBudgetExhausts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close() // never even a header
		}
	}()
	var out bytes.Buffer
	if err := run([]string{"-consume", ln.Addr().String(), "-reconnect", "1"}, &out, nil, nil); err == nil {
		t.Fatalf("consume of a dead stream succeeded:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "attempt 1/1") {
		t.Fatalf("output missing retry line:\n%s", out.String())
	}
}

// TestFlowsOutRoundTrip converts a CSV to a CSBF artifact and checks the
// artifact's flow section matches the canonical encoding.
func TestFlowsOutRoundTrip(t *testing.T) {
	csvPath, flows := writeTestCSV(t)
	out := filepath.Join(t.TempDir(), "flows.csbf")
	var buf bytes.Buffer
	if err := run([]string{"-flows", csvPath, "-flows-out", out}, &buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := replay.EncodeFlows(flows); !bytes.Equal(data[replay.FlowFileHeaderLen:], want) {
		t.Fatal("CSBF flow section differs from canonical encoding")
	}
	back, err := replay.ReadFlowFile(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(flows) {
		t.Fatalf("round trip: %d flows, want %d", len(back), len(flows))
	}
}

// TestConsumeWithIDS streams a dataset with an injected host scan through the
// consume-side streaming detector and expects an alert.
func TestConsumeWithIDS(t *testing.T) {
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(20, 300, 5))
	if err != nil {
		t.Fatal(err)
	}
	flows := netflow.Assemble(pkts, 0)
	// Append a blatant host scan: one source probing 1500 ports of one host
	// in a tight burst right after the trace.
	base := flows[len(flows)-1].EndMicros + 1e6
	for i := 0; i < 1500; i++ {
		flows = append(flows, netflow.Flow{
			SrcIP: 0xbad00001, DstIP: 0x0a000003,
			Protocol: 6, SrcPort: uint16(20000 + i), DstPort: uint16(i + 1),
			StartMicros: base + int64(i)*100, EndMicros: base + int64(i)*100 + 50,
			OutBytes: 40, OutPkts: 1, SYNCount: 1,
		})
	}
	path := filepath.Join(t.TempDir(), "scan.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := netflow.WriteCSV(f, flows); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ready := make(chan string, 1)
	stop := make(chan struct{})
	defer close(stop)
	serveErr := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		serveErr <- run([]string{"-flows", path, "-addr", "127.0.0.1:0", "-wait", "1"}, &out, ready, stop)
	}()
	addr := <-ready
	var out bytes.Buffer
	if err := run([]string{"-consume", addr, "-ids", "-window-sec", "60"}, &out, nil, nil); err != nil {
		t.Fatalf("consume: %v\n%s", err, out.String())
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if !strings.Contains(out.String(), "[alert]") || !strings.Contains(out.String(), "host-scan") {
		t.Fatalf("no host-scan alert in:\n%s", out.String())
	}
}

// TestFollowDaemonJob runs -follow against a live csbd server: submit a csv
// job, follow it, and convert the fetched artifact to CSBF.
func TestFollowDaemonJob(t *testing.T) {
	s, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	spec := serve.Spec{Generator: serve.GenPGPBA, Hosts: 15, Sessions: 150, Seed: 3,
		Fraction: 0.5, Edges: 2000, Format: serve.FormatCSV}
	st, err := s.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "followed.csbf")
	var buf bytes.Buffer
	if err := run([]string{"-follow", st.ID, "-daemon", ts.URL, "-flows-out", out}, &buf, nil, nil); err != nil {
		t.Fatalf("follow: %v\n%s", err, buf.String())
	}
	flows, err := func() ([]netflow.Flow, error) {
		f, err := os.Open(out)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return replay.ReadFlowFile(f)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("followed artifact decoded to zero flows")
	}
}

// TestArtifactReplaysItsRecords serves CSBF artifacts with -artifact: one in
// start-time order, whose flow section is streamed as it is, and one with two
// records swapped, which takes the decode-and-sort path. Either way the
// consumer receives the dataset in start-time order, and -flows-out still
// converts an artifact (the one case that needs it decoded although sorted).
func TestArtifactReplaysItsRecords(t *testing.T) {
	_, flows := writeTestCSV(t)
	want := replay.EncodeFlows(flows)
	dir := t.TempDir()
	writeArtifact := func(name string, flows []netflow.Flow) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.WriteFlowFile(f, flows); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	sorted := writeArtifact("sorted.csbf", flows)
	// Swap the first and last records. Their start times tie with no
	// neighbour's, so a stable sort restores exactly the canonical order.
	swapped := slices.Clone(flows)
	last := len(swapped) - 1
	if swapped[0].StartMicros == swapped[1].StartMicros || swapped[last].StartMicros == swapped[last-1].StartMicros {
		t.Fatal("test dataset: first or last flow ties with its neighbour")
	}
	swapped[0], swapped[last] = swapped[last], swapped[0]
	unsorted := writeArtifact("unsorted.csbf", swapped)

	for _, path := range []string{sorted, unsorted} {
		ready := make(chan string, 1)
		stop := make(chan struct{})
		var serveOut bytes.Buffer
		serveErr := make(chan error, 1)
		go func() {
			serveErr <- run([]string{"-artifact", path, "-addr", "127.0.0.1:0", "-wait", "1"}, &serveOut, ready, stop)
		}()
		raw := filepath.Join(dir, "raw.bin")
		var out bytes.Buffer
		if err := run([]string{"-consume", <-ready, "-raw-out", raw}, &out, nil, nil); err != nil {
			t.Fatalf("%s: consume: %v\n%s", path, err, out.String())
		}
		if err := <-serveErr; err != nil {
			t.Fatalf("%s: serve: %v", path, err)
		}
		close(stop)
		got, err := os.ReadFile(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: consumer payload differs from the dataset in start-time order", path)
		}
		for _, line := range []string{fmt.Sprintf("loaded %d flows", len(flows)), "head=0 tail=0 clean=true"} {
			if !strings.Contains(serveOut.String()+out.String(), line) {
				t.Fatalf("%s: output missing %q:\n%s%s", path, line, serveOut.String(), out.String())
			}
		}
	}

	converted := filepath.Join(dir, "converted.csbf")
	var out bytes.Buffer
	if err := run([]string{"-artifact", unsorted, "-flows-out", converted}, &out, nil, nil); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(converted)
	b, _ := os.ReadFile(sorted)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("-artifact -flows-out did not rewrite the artifact in start-time order")
	}
}
