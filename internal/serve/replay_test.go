package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"csb/internal/netflow"
	"csb/internal/replay"
)

// startReplayHTTP posts a replay request and decodes the response.
func startReplayHTTP(t *testing.T, ts *httptest.Server, req ReplayRequest) (*http.Response, ReplayStatus) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/replay", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ReplayStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

// genCSVArtifact runs one csv-format job to completion and returns its
// artifact id.
func genCSVArtifact(t *testing.T, ts *httptest.Server, seed uint64) string {
	t.Helper()
	spec := tinySpec(seed)
	spec.Format = FormatCSV
	resp, st := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	st = pollDone(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	return st.ArtifactID
}

// TestReplayEndpointStreamsArtifact is the end-to-end daemon path: generate a
// csv artifact, POST /replay, subscribe over TCP, and check the stream
// delivers every flow cleanly with the artifact's content address in the
// header.
func TestReplayEndpointStreamsArtifact(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	artifact := genCSVArtifact(t, ts, 7)

	resp, st := startReplayHTTP(t, ts, ReplayRequest{
		ArtifactID: artifact, WaitSubscribers: 1, WaitMS: 30_000,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /replay: status %d", resp.StatusCode)
	}
	if st.Flows == 0 || st.Addr == "" || st.Policy != "block" {
		t.Fatalf("bad session status: %+v", st)
	}

	conn, err := net.Dial("tcp", st.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var got int
	cs, err := replay.Consume(conn, func(seq uint64, f netflow.Flow, raw []byte) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Clean || cs.Gaps != 0 || got != st.Flows {
		t.Fatalf("consume: clean=%v gaps=%d got=%d want %d flows", cs.Clean, cs.Gaps, got, st.Flows)
	}
	// The stream header carries the artifact's content address.
	if gotSHA := hex.EncodeToString(cs.Header.ArtifactSHA[:]); gotSHA != artifact {
		t.Fatalf("header SHA %s, want %s", gotSHA, artifact)
	}

	// Status flips to done and reports the emitted count.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r2, err := http.Get(ts.URL + "/replay/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur ReplayStatus
		if err := json.NewDecoder(r2.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if cur.Done {
			if cur.Emitted != int64(st.Flows) {
				t.Fatalf("emitted %d, want %d", cur.Emitted, st.Flows)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplayEndpointErrors covers the admission paths: unknown artifact,
// non-replayable format, bad policy, missing id.
func TestReplayEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	for _, tc := range []struct {
		name string
		req  ReplayRequest
		want int
	}{
		{"missing id", ReplayRequest{}, http.StatusBadRequest},
		{"unknown artifact", ReplayRequest{ArtifactID: strings.Repeat("ab", 32)}, http.StatusNotFound},
		{"bad policy", ReplayRequest{ArtifactID: strings.Repeat("ab", 32), Policy: "nope"}, http.StatusBadRequest},
	} {
		resp, _ := startReplayHTTP(t, ts, tc.req)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// A tsv artifact exists but has no flow decoder.
	spec := tinySpec(9) // default format: tsv
	resp, st := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	done := pollDone(t, ts, st.ID)
	resp2, _ := startReplayHTTP(t, ts, ReplayRequest{ArtifactID: done.ArtifactID})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("tsv replay: status %d, want 400", resp2.StatusCode)
	}
}

// TestReplaySessionCapAndDelete checks the session cap sheds with 429 and
// DELETE frees a slot while preserving the metrics totals.
func TestReplaySessionCapAndDelete(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ReplaySessions: 1})
	artifact := genCSVArtifact(t, ts, 11)

	// wait_subscribers holds the run open (no subscriber will come), pinning
	// the session active.
	resp, st := startReplayHTTP(t, ts, ReplayRequest{
		ArtifactID: artifact, WaitSubscribers: 1, WaitMS: 60_000,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first session: status %d", resp.StatusCode)
	}
	resp2, _ := startReplayHTTP(t, ts, ReplayRequest{ArtifactID: artifact, WaitSubscribers: 1})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap session: status %d, want 429", resp2.StatusCode)
	}

	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/replay/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", dresp.StatusCode)
	}
	if _, ok := s.ReplayStatusByID(st.ID); ok {
		t.Fatal("session still registered after DELETE")
	}
	// Slot freed: a new session is admitted.
	resp3, st3 := startReplayHTTP(t, ts, ReplayRequest{ArtifactID: artifact})
	if resp3.StatusCode != http.StatusCreated {
		t.Fatalf("post-delete session: status %d", resp3.StatusCode)
	}
	// Totals count both admitted sessions even though one was deleted; the
	// shed request never minted a session.
	if m := s.Metrics(); m.Replay.SessionsTotal != 2 {
		t.Fatalf("sessions total %d, want 2 (%+v)", m.Replay.SessionsTotal, m.Replay)
	}
	_ = st3
}

// TestReplayMetricsLines checks the /metrics rendering carries the replay
// gauges and counters.
func TestReplayMetricsLines(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	artifact := genCSVArtifact(t, ts, 13)
	resp, st := startReplayHTTP(t, ts, ReplayRequest{ArtifactID: artifact})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /replay: status %d", resp.StatusCode)
	}
	// Drain the stream so the session finishes.
	conn, err := net.Dial("tcp", st.Addr)
	if err != nil {
		t.Fatal(err)
	}
	replay.Consume(conn, nil)
	conn.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, line := range []string{
		"csbd_replay_sessions_total 1",
		"csbd_replay_sessions 1",
		"csbd_replay_subscribers_total 1",
		"csbd_replay_dropped_frames_total 0",
		"csbd_replay_disconnected_total 0",
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("metrics missing %q in:\n%s", line, text)
		}
	}
	if !strings.Contains(text, "csbd_replay_emitted_flows_total") {
		t.Fatal("metrics missing emitted counter")
	}
}

// cacheFlowArtifact plants a hand-built csbf artifact in the server's cache,
// as a finished scenario job would have left it, and returns its id.
func cacheFlowArtifact(s *Server, id string, data []byte) string {
	s.cache.Put(id, data)
	s.mu.Lock()
	s.formats[id] = FormatCSBF
	s.mu.Unlock()
	return id
}

// streamPayload subscribes to a session and returns the concatenated frame
// payloads of a clean, gap-free stream.
func streamPayload(t *testing.T, addr string, flows int) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var payload bytes.Buffer
	cs, err := replay.Consume(conn, func(_ uint64, _ netflow.Flow, raw []byte) error {
		payload.Write(raw)
		return nil
	})
	if err != nil || !cs.Clean || cs.Gaps != 0 || cs.Received != uint64(flows) || cs.Head != 0 || cs.Tail != 0 {
		t.Fatalf("stream: err=%v stats=%+v, want %d flows", err, cs, flows)
	}
	return payload.Bytes()
}

// TestReplayStartAliasesArtifact: a csbf session streams the cached
// artifact's flow section in place. StartReplay decodes nothing and copies
// nothing — it allocates well under 1 MiB for an 8 MB artifact (decoding,
// sorting and re-encoding it took ≈ 18 MB) — and the stream's payloads are the
// artifact's flow bytes, the trailing label section excluded.
func TestReplayStartAliasesArtifact(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	flows := make([]netflow.Flow, 100_000)
	for i := range flows {
		flows[i] = netflow.Flow{SrcIP: uint32(i), DstIP: 7, DstPort: uint16(i), StartMicros: int64(i/3) * 1000, OutBytes: int64(i)}
	}
	var buf bytes.Buffer
	if err := replay.WriteFlowFile(&buf, flows); err != nil {
		t.Fatal(err)
	}
	section := bytes.Clone(buf.Bytes()[replay.FlowFileHeaderLen:])
	buf.WriteString("CSBL1 stands in for a label section")
	id := cacheFlowArtifact(s, strings.Repeat("cd", 32), buf.Bytes())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := s.StartReplay(ReplayRequest{ArtifactID: id, WaitSubscribers: 1, WaitMS: 30_000})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Flows != len(flows) {
		t.Fatalf("session announces %d flows, want %d", st.Flows, len(flows))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("StartReplay allocated %d bytes for a %d-byte csbf artifact, want < 1 MiB", got, buf.Len())
	} else {
		t.Logf("StartReplay allocated %d bytes for a %d-byte csbf artifact", got, buf.Len())
	}
	if !bytes.Equal(streamPayload(t, st.Addr, len(flows)), section) {
		t.Fatal("stream payloads differ from the artifact's flow section")
	}
}

// TestReplayUnsortedArtifactFallsBack: a csbf whose records are out of
// start-time order cannot be streamed in place; the session decodes it and
// replays it in start-time order.
func TestReplayUnsortedArtifactFallsBack(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	flows := make([]netflow.Flow, 50)
	for i := range flows {
		flows[i] = netflow.Flow{SrcIP: uint32(i), StartMicros: int64(i) * 10}
	}
	inOrder := replay.EncodeFlows(flows)
	flows[10], flows[31] = flows[31], flows[10]
	var buf bytes.Buffer
	if err := replay.WriteFlowFile(&buf, flows); err != nil {
		t.Fatal(err)
	}
	id := cacheFlowArtifact(s, strings.Repeat("ef", 32), buf.Bytes())
	st, err := s.StartReplay(ReplayRequest{ArtifactID: id, WaitSubscribers: 1, WaitMS: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if got := streamPayload(t, st.Addr, len(flows)); !bytes.Equal(got, inOrder) {
		t.Fatal("unsorted csbf did not replay in start-time order")
	}
}
