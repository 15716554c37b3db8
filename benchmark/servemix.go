package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"csb/internal/cluster"
	"csb/internal/graph"
	"csb/internal/serve"
)

// serveFormats is the fixed rotation of artifact formats: hot spec f and
// every cold spec k with k%4 == f are encoded in serveFormats[f].
var serveFormats = []string{serve.FormatTSV, serve.FormatCSV, serve.FormatNDJSON, serve.FormatCSBG}

// revisitLag is how many cold specs later a cold spec is requested again. By
// then newer artifacts have pushed it out of the memory tier, so the revisit
// is served by the disk tier.
const revisitLag = 8

// serveWorkload is the daemon path (serve-mix): two closed-loop clients
// against an in-process csbd. Of every eight requests two are cold
// (unique-seed spec), one revisits the cold spec of revisitLag colds ago, and
// five hit a hot set of four specs built in set-up.
type serveWorkload struct {
	sz      sizes
	seed    uint64
	scratch string
	// tamper, set only by tests, damages one observed artifact digest.
	tamper func(*digest)

	d *daemon

	mu     sync.Mutex
	seen   []observed // every completed request's artifact and digest
	cycles []cycle    // traced operations only
}

type observed struct {
	spec   serve.Spec
	cold   int // index of the cold spec, -1 for the hot set
	digest digest
}

func newServeWorkload(sz sizes, seed uint64, scratch string) *serveWorkload {
	return &serveWorkload{sz: sz, seed: seed, scratch: scratch}
}

func (w *serveWorkload) name() string { return wlServeMix }
func (w *serveWorkload) clients() int { return 2 }

// period: four cold specs complete one rotation of the formats.
func (w *serveWorkload) period() int { return 4 * len(serveFormats) }

func (w *serveWorkload) makeSpec(stream string, k int) serve.Spec {
	s := serve.Spec{
		Generator: serve.GenPGPBA, Seed: derive(w.seed, stream, k),
		Edges: w.sz.ServeEdges, Format: serveFormats[k%len(serveFormats)],
	}
	if err := s.Normalize(); err != nil {
		panic(err) // the fields above are constants of the benchmark
	}
	return s
}

// request maps an operation index onto the mix: the spec to ask for, the
// cold spec's index (-1 on the hot set) and whether this is a revisit.
func (w *serveWorkload) request(i int) (spec serve.Spec, cold int, revisit bool) {
	switch k := i / 4; {
	case i%4 == 3:
		return w.makeSpec("cold", k), k, false
	case i%8 == 5 && k >= revisitLag:
		return w.makeSpec("cold", k-revisitLag), k - revisitLag, true
	default:
		return w.makeSpec("hot", i%len(serveFormats)), -1, false
	}
}

func (w *serveWorkload) setUp(ctx context.Context) error {
	d, err := startDaemon(w.sz, w.scratch)
	if err != nil {
		return err
	}
	w.d = d
	w.seen, w.cycles = nil, nil
	// Build the hot set, then warm up on it.
	for i := 0; i < len(serveFormats)+w.sz.Warmup; i++ {
		if _, err := d.runCycle(ctx, w.makeSpec("hot", i%len(serveFormats)), nil, 0, 0, -1, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) tearDown() error {
	if w.d == nil {
		return nil
	}
	err := w.d.stop()
	w.d = nil
	return err
}

func (w *serveWorkload) op(ctx context.Context, lane, i int, rec *recorder) outcome {
	spec, cold, revisit := w.request(i)
	root := rec.begin(rootSpan, i, lane, -1)
	cy, err := w.d.runCycle(ctx, spec, rec, i, lane, root, nil)
	rec.end(root)
	// The server says whether it had to generate; a revisit it could still
	// answer from cache is the disk tier's hit.
	out := outcome{dur: cy.total(), edges: spec.Edges, class: "hit"}
	switch {
	case !cy.status.CacheHit:
		out.class = "cold:" + spec.Format
	case revisit:
		out.class = "revisit"
	}
	if err != nil {
		out.err = fmt.Errorf("serve-mix request %d: %w", i, err)
		return out
	}
	w.mu.Lock()
	w.seen = append(w.seen, observed{spec, cold, cy.digest})
	if rec != nil {
		w.cycles = append(w.cycles, cy)
	}
	w.mu.Unlock()
	return out
}

// finish compares what the daemon served with a direct serve.BuildArtifact
// of the same spec: every request on the hot set, and every request on one
// cold spec in eight.
func (w *serveWorkload) finish(ctx context.Context) []error {
	want := make(map[string]digest)
	var errs []error
	for _, o := range w.seen {
		if o.cold >= 0 && o.cold%8 != 0 {
			continue
		}
		id := o.spec.ID()
		exp, ok := want[id]
		if !ok {
			data, err := build(ctx, o.spec)
			if err != nil {
				return append(errs, fmt.Errorf("serve-mix: direct build of %s: %w", id[:12], err))
			}
			exp = digestOf(data)
			want[id] = exp
		}
		got := o.digest
		if w.tamper != nil {
			w.tamper(&got)
		}
		if got != exp {
			errs = append(errs, fmt.Errorf("serve-mix: artifact %s served as %d bytes crc %08x, direct build gives %d bytes crc %08x",
				id[:12], got.n, got.crc, exp.n, exp.crc))
		}
	}
	return errs
}

func (w *serveWorkload) layers(ctx context.Context, ms metricSet, untraced phase) error {
	// Latency classes, from the untraced operations.
	hits, revisits, colds := untraced.durations("hit"), untraced.durations("revisit"), untraced.durations("cold:")
	ms.set("serve.hit_p50_ms", quantileMS(hits, 0.5), len(hits))
	ms.set("serve.hit_p90_ms", quantileMS(hits, 0.9), len(hits))
	ms.setMedianMS("serve.revisit_p50_ms", revisits)
	ms.set("serve.cache_mem_hit_ratio", float64(len(hits))/float64(max(len(hits)+len(revisits), 1)), len(hits)+len(revisits))
	ms.set("serve.cold_p50_ms", quantileMS(colds, 0.5), len(colds))
	ms.set("serve.cold_p90_ms", quantileMS(colds, 0.9), len(colds))
	for _, f := range serveFormats {
		ms.setMedianMS("serve.cold_p50_ms."+f, untraced.durations("cold:"+f))
	}

	// Client-side spans of the traced operations.
	var submit, wait, buildT, ttfb []time.Duration
	var rate []float64
	var polls, coldN int
	for _, cy := range w.cycles {
		submit = append(submit, cy.submit)
		ttfb = append(ttfb, cy.ttfb)
		rate = append(rate, float64(cy.digest.n)/1e6/cy.fetch.Seconds())
		if !cy.status.CacheHit {
			b := time.Duration(cy.status.DurationMS) * time.Millisecond
			buildT = append(buildT, b)
			wait = append(wait, max(cy.submit+cy.wait-b, 0))
			polls += cy.polls
			coldN++
		}
	}
	ms.setMedianMS("serve.submit_rtt_ms", submit)
	ms.setMedianMS("serve.queue_wait_ms", wait)
	ms.setMedianMS("serve.build_ms", buildT)
	ms.set("serve.polls_per_job", float64(polls)/float64(max(coldN, 1)), coldN)
	ms.setMedianMS("serve.fetch_ttfb_ms", ttfb)
	ms.set("serve.fetch_mb_per_s", median(rate), len(rate))

	setServerCounters(ms, w.d.srv)
	setStageMetrics(ms, jobStages(w.d.srv.Tracer().Spans()))

	data, err := build(ctx, w.makeSpec("probe", 3)) // csbg, so the graph can be read back
	if err != nil {
		return err
	}
	g, err := graph.Read(bytes.NewReader(data))
	if err != nil {
		return err
	}
	payloads, err := probeEncoders(ms, g, w.sz.ProbeReps)
	if err != nil {
		return err
	}
	return probeCache(ms, w.sz, w.scratch, payloads)
}

// setServerCounters reports Server.Metrics() counters as they stand at the
// end of the run (set-up and both phases).
func setServerCounters(ms metricSet, srv *serve.Server) {
	m := srv.Metrics()
	ms.set("serve.cache_hits", float64(m.CacheHits), 1)
	ms.set("serve.cache_misses", float64(m.CacheMisses), 1)
	ms.set("serve.cache_evictions", float64(m.Cache.Evictions), 1)
	ms.set("serve.cache_spills", float64(m.Cache.Spills), 1)
	ms.set("serve.jobs_rejected", float64(m.JobsRejected), 1)
	ms.set("serve.job_retries", float64(m.JobRetries), 1)
}

// jobStages groups a server tracer's spans into one aggregate per job: every
// job runs on its own cluster, which the tracer gives its own lane.
func jobStages(spans []cluster.TraceSpan) []stageAgg {
	byLane := make(map[int][]cluster.TraceSpan)
	var lanes []int
	for _, s := range spans {
		if _, ok := byLane[s.Cluster]; !ok {
			lanes = append(lanes, s.Cluster)
		}
		byLane[s.Cluster] = append(byLane[s.Cluster], s)
	}
	aggs := make([]stageAgg, 0, len(lanes))
	for _, lane := range lanes {
		aggs = append(aggs, aggregateStages(byLane[lane]))
	}
	return aggs
}

// probeEncoders times serve.EncodeArtifact on g in every format and returns
// the encoded payloads.
func probeEncoders(ms metricSet, g *graph.Graph, reps int) ([][]byte, error) {
	var payloads [][]byte
	for _, f := range serveFormats {
		var ds []time.Duration
		var buf bytes.Buffer
		for r := 0; r < reps; r++ {
			buf.Reset()
			t0 := time.Now()
			if err := serve.EncodeArtifact(&buf, g, f); err != nil {
				return nil, err
			}
			ds = append(ds, time.Since(t0))
		}
		ms.setMedianMS("serve.encode_ms."+f, ds)
		if f == serve.FormatCSBG {
			ms.set("serve.encode_mb_per_s.csbg", float64(buf.Len())/1e6/(quantileMS(ds, 0.5)/1e3), len(ds))
		}
		payloads = append(payloads, bytes.Clone(buf.Bytes()))
	}
	return payloads, nil
}

// probeCache times direct calls on a stand-alone cache with the workload's
// budget and artifact sizes: puts that fit, puts that spill an older
// artifact to disk, reads from memory and reads that promote from disk.
func probeCache(ms metricSet, sz sizes, scratch string, payloads [][]byte) error {
	dir, err := os.MkdirTemp(scratch, "cache-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := serve.NewCache(sz.CacheBytes, filepath.Join(dir, "spill"), 0)
	if err != nil {
		return err
	}
	var put, putSpill, getMem, getDisk []time.Duration
	var total int64
	n := 0
	// Insert three memory budgets' worth: the oldest artifacts are then out
	// of memory by LRU order and inside the disk tier's 4x budget.
	for ; total < 3*sz.CacheBytes && n < 4096; n++ {
		data := payloads[n%len(payloads)]
		before := cache.Stats().Spills
		t0 := time.Now()
		cache.Put("probe-"+strconv.Itoa(n), data)
		d := time.Since(t0)
		if cache.Stats().Spills > before {
			putSpill = append(putSpill, d)
		} else {
			put = append(put, d)
		}
		total += int64(len(data))
	}
	for r := 0; r < 4*sz.ProbeReps; r++ {
		t0 := time.Now()
		if _, ok := cache.Get("probe-" + strconv.Itoa(n-1)); !ok {
			return fmt.Errorf("cache probe: newest artifact is not cached")
		}
		getMem = append(getMem, time.Since(t0))
	}
	// A read of an old artifact promotes it from disk, which also spills
	// whatever memory then evicts: the full price of a disk-tier hit.
	for i := 0; i < 2*sz.ProbeReps && i < n/3; i++ {
		t0 := time.Now()
		if _, ok := cache.Get("probe-" + strconv.Itoa(i)); !ok {
			return fmt.Errorf("cache probe: artifact %d is in neither tier", i)
		}
		getDisk = append(getDisk, time.Since(t0))
	}
	ms.set("serve.cache_get_mem_us", quantileMS(getMem, 0.5)*1e3, len(getMem))
	ms.setMedianMS("serve.cache_get_disk_ms", getDisk)
	ms.setMedianMS("serve.cache_put_ms", put)
	ms.setMedianMS("serve.cache_put_spill_ms", putSpill)
	return nil
}
