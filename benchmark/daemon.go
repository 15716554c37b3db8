package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"csb/internal/serve"
)

// pollInterval is how often a client re-reads a running job's status. Job
// latencies are quantised to it; serve.polls_per_job makes that visible.
const pollInterval = 2 * time.Millisecond

// maxConns is the load generator's connection budget: one keep-alive
// connection per closed-loop client.
const maxConns = 2

// daemon is an in-process csbd: a serve.Server of the pinned shape behind a
// real loopback listener, with the disk spill tier in a temp dir, and the one
// HTTP client the load generator uses.
type daemon struct {
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	addr    string
	base    string
	dir     string
	client  *http.Client
	dials   atomic.Int64
}

// startDaemon brings the daemon up; scratch is the directory its spill dir is
// created under.
func startDaemon(sz sizes, scratch string) (*daemon, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "csbd-cache-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Workers: 2, QueueDepth: 16, CacheBytes: sz.CacheBytes, CacheDir: dir, Shape: pinnedShape,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv: srv, httpSrv: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		addr: ln.Addr().String(), base: "http://" + ln.Addr().String(), dir: dir,
	}
	go func() { d.served <- d.httpSrv.Serve(ln) }()
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			d.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}}
	return d, nil
}

// stop shuts everything down and checks the load generator's hygiene: the
// keep-alive connections were reused, the listener is gone, the spill dir is
// removed.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := d.httpSrv.Shutdown(ctx)
	<-d.served
	d.srv.Close()
	rmErr := os.RemoveAll(d.dir)
	switch {
	case shutdownErr != nil:
		return fmt.Errorf("shutting the daemon down: %w", shutdownErr)
	case rmErr != nil:
		return fmt.Errorf("removing the spill dir: %w", rmErr)
	case d.dials.Load() > maxConns:
		return fmt.Errorf("load generator opened %d connections, want at most %d reused ones", d.dials.Load(), maxConns)
	}
	if c, err := net.DialTimeout("tcp", d.addr, time.Second); err == nil {
		c.Close()
		return fmt.Errorf("listener %s outlived the daemon", d.addr)
	}
	return nil
}

// doJSON sends one request with an optional JSON body and decodes a JSON
// reply into out. Any status outside 2xx is an error: the workloads are built
// so that no request is refused.
func (d *daemon) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// cycle is one client request cycle against csbd: submit, poll until done,
// fetch the artifact fully. digest fingerprints the fetched bytes.
type cycle struct {
	status              serve.JobStatus
	submit, wait, fetch time.Duration
	ttfb                time.Duration
	polls               int
	digest              digest
}

func (c cycle) total() time.Duration { return c.submit + c.wait + c.fetch }

// digest fingerprints artifact bytes cheaply enough to run on every fetch in
// the timed loop: length plus CRC-32C, which any flipped byte changes.
type digest struct {
	n   int64
	crc uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func digestOf(data []byte) digest {
	return digest{n: int64(len(data)), crc: crc32.Checksum(data, castagnoli)}
}

// runCycle drives one request cycle for spec. sink, when non-nil, receives
// the artifact bytes (set-up keeps the scenario artifact; the timed loop
// passes nil and only fingerprints).
func (d *daemon) runCycle(ctx context.Context, spec serve.Spec, rec *recorder, op, lane, root int, sink io.Writer) (cycle, error) {
	var cy cycle
	t0 := time.Now()
	id := rec.begin("serve.submit", op, lane, root)
	err := d.doJSON(ctx, http.MethodPost, "/v1/jobs", spec, &cy.status)
	rec.end(id)
	cy.submit = time.Since(t0)
	if err != nil {
		return cy, err
	}

	t1 := time.Now()
	id = rec.begin("serve.queue_wait", op, lane, root)
	for cy.status.State == serve.StateQueued || cy.status.State == serve.StateRunning {
		time.Sleep(pollInterval)
		cy.polls++
		if err := d.doJSON(ctx, http.MethodGet, "/v1/jobs/"+cy.status.ID, nil, &cy.status); err != nil {
			rec.end(id)
			return cy, err
		}
	}
	rec.end(id)
	cy.wait = time.Since(t1)
	if cy.status.State != serve.StateDone {
		return cy, fmt.Errorf("job %s ended %s: %s", cy.status.ID, cy.status.State, cy.status.Error)
	}
	if !cy.status.CacheHit {
		// The server reports the build's own run time; the rest of the wait
		// is queueing plus poll quantisation.
		build := time.Duration(cy.status.DurationMS) * time.Millisecond
		rec.add("serve.build", op, lane, id, t1.Add(cy.wait-min(build, cy.wait)), min(build, cy.wait))
	}

	t2 := time.Now()
	id = rec.begin("serve.fetch", op, lane, root)
	defer rec.end(id)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/artifacts/"+cy.status.ArtifactID, nil)
	if err != nil {
		return cy, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return cy, err
	}
	defer resp.Body.Close()
	cy.ttfb = time.Since(t2)
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return cy, fmt.Errorf("GET artifact %s: status %d", cy.status.ArtifactID, resp.StatusCode)
	}
	h := crc32.New(castagnoli)
	var dst io.Writer = h
	if sink != nil {
		dst = io.MultiWriter(h, sink)
	}
	n, err := io.Copy(dst, resp.Body)
	cy.fetch = time.Since(t2)
	if err != nil {
		return cy, fmt.Errorf("reading artifact %s: %w", cy.status.ArtifactID, err)
	}
	cy.digest = digest{n: n, crc: h.Sum32()}
	return cy, nil
}
