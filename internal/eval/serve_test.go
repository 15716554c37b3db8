package eval_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"csb/internal/eval"
	"csb/internal/graph"
	"csb/internal/serve"
)

// TestCellIsServedArtifact: a grid cell scores the artifact csbd serves.
// Each cell's spec, submitted to an in-process csbd, names the artifact the
// row's Spec.ID gives; the bytes fetched from /v1/artifacts/<id> have the
// row's SHA-256 and decode to a graph of the row's size.
func TestCellIsServedArtifact(t *testing.T) {
	sp := tinySpec(t)
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	for _, c := range sp.Cells() {
		row, err := eval.RunCell(sp, c)
		if err != nil {
			t.Fatal(err)
		}
		id := row.Spec.ID()
		body, err := json.Marshal(row.Spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		st := jobStatus(t, resp, err)
		if st.ArtifactID != id {
			t.Fatalf("cell %d: csbd names artifact %s, the row's spec %s", c.Index, st.ArtifactID, id)
		}
		deadline := time.Now().Add(60 * time.Second)
		for st.State != serve.StateDone {
			if st.State == serve.StateFailed || st.State == serve.StateCanceled || time.Now().After(deadline) {
				t.Fatalf("cell %d: job %s is %s (%s)", c.Index, st.ID, st.State, st.Error)
			}
			time.Sleep(5 * time.Millisecond) // paces a poll of the job's state
			resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
			st = jobStatus(t, resp, err)
		}

		resp, err = http.Get(ts.URL + "/v1/artifacts/" + id)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("cell %d: fetching artifact: %d %v", c.Index, resp.StatusCode, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != row.SHA256 {
			t.Fatalf("cell %d: served artifact SHA-256 %s, row %s", c.Index, got, row.SHA256)
		}
		g, err := graph.Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices() != row.Vertices || g.NumEdges() != row.Edges {
			t.Fatalf("cell %d: served graph has %d vertices, %d edges; row %d, %d",
				c.Index, g.NumVertices(), g.NumEdges(), row.Vertices, row.Edges)
		}
	}
}

// jobStatus decodes the JobStatus body of a csbd jobs response.
func jobStatus(t *testing.T, resp *http.Response, err error) serve.JobStatus {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding job status (HTTP %d): %v", resp.StatusCode, err)
	}
	return st
}
