package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"csb/internal/attack"
	"csb/internal/ids"
	"csb/internal/netflow"
	"csb/internal/replay"
	"csb/internal/scenario"
	"csb/internal/serve"
)

const (
	// subscribers is the fan-out of every replay session.
	subscribers = 2
	// detectWindowMicros is the streaming detector's tumbling window.
	detectWindowMicros = 1_000_000
	// detectSampleEvery is how sparsely the traced run times detector calls;
	// timing each of ~1M calls per session would be the overhead it measures.
	// A prime stride does not alias with the window closes, which carry most
	// of the detector's cost and recur about every thousand flows.
	detectSampleEvery = 31
)

// replayWorkload is the stream path (replay-detect). Set-up generates one
// labeled scenario artifact through csbd and loads its ground truth; every
// operation replays it to two subscribers that each run the streaming
// detector and score its alerts against the labels.
type replayWorkload struct {
	sz      sizes
	seed    uint64
	scratch string
	// tamper, set only by tests, damages one session's observations before
	// they are checked.
	tamper func(*session)

	d        *daemon
	artifact []byte
	id       string
	truth    *attack.Scenario

	sessions []session
}

// subscriber is what one stream consumer observed.
type subscriber struct {
	stats   replay.ConsumeStats
	alerts  []ids.Alert
	outcome attack.Outcome
	late    int64
	detect  time.Duration // traced run: sampled time inside the detector, scaled up
	err     error
}

// session is one operation's observations, kept for the checks in finish.
type session struct {
	op     int
	subs   [subscribers]subscriber
	start  time.Duration // POST /replay round trip
	status serve.ReplayStatus
}

func newReplayWorkload(sz sizes, seed uint64, scratch string) *replayWorkload {
	return &replayWorkload{sz: sz, seed: seed, scratch: scratch}
}

func (w *replayWorkload) name() string { return wlReplayDetect }
func (w *replayWorkload) clients() int { return 1 }
func (w *replayWorkload) period() int  { return 1 }

// spec is the scenario job: a PGPBA background with three attacks spread
// over its synthetic timeline (one flow per millisecond), on distinct
// victims so the detector's per-IP aggregates stay separable.
func (w *replayWorkload) spec() serve.Spec {
	timelineMS := w.sz.ReplayEdges * scenario.DefaultGapMicros / 1000
	s := serve.Spec{Scenario: &scenario.Spec{
		Seed:       derive(w.seed, wlReplayDetect, 0),
		Background: scenario.Background{Source: scenario.SourcePGPBA, Edges: w.sz.ReplayEdges},
		Attacks: []scenario.Attack{
			{Type: scenario.TypeHostScan, StartMS: timelineMS / 10, Count: w.sz.ScanPorts, Victim: 0x0a000003},
			{Type: scenario.TypeSYNFlood, StartMS: timelineMS * 4 / 10, Count: w.sz.FloodFlows, Victim: 0x0a000005},
			{Type: scenario.TypeDDoS, StartMS: timelineMS * 7 / 10, Count: w.sz.DDoSSources, FlowsPerSource: w.sz.DDoSFlowsPerSource, Victim: 0x0a000009},
		},
	}}
	if err := s.Normalize(); err != nil {
		panic(err) // the fields above are constants of the benchmark
	}
	return s
}

func (w *replayWorkload) setUp(ctx context.Context) error {
	d, err := startDaemon(w.sz, w.scratch)
	if err != nil {
		return err
	}
	w.d = d
	w.sessions = nil
	var buf bytes.Buffer
	cy, err := d.runCycle(ctx, w.spec(), nil, 0, 0, -1, &buf)
	if err != nil {
		return err
	}
	w.artifact, w.id = buf.Bytes(), cy.status.ArtifactID
	if w.truth, err = scenario.DecodeLabeled(w.artifact); err != nil {
		return fmt.Errorf("decoding the labeled artifact: %w", err)
	}
	for i := 1; i <= w.sz.Warmup; i++ {
		if out := w.op(ctx, 0, -i, nil); out.err != nil {
			return out.err
		}
	}
	w.sessions = nil
	return nil
}

func (w *replayWorkload) tearDown() error {
	if w.d == nil {
		return nil
	}
	err := w.d.stop()
	w.d = nil
	return err
}

// startSession opens a replay session that waits for n subscribers.
func (w *replayWorkload) startSession(ctx context.Context, n int) (serve.ReplayStatus, error) {
	var st serve.ReplayStatus
	err := w.d.doJSON(ctx, http.MethodPost, "/replay",
		serve.ReplayRequest{ArtifactID: w.id, WaitSubscribers: n}, &st)
	return st, err
}

func (w *replayWorkload) stopSession(ctx context.Context, id string) error {
	return w.d.doJSON(ctx, http.MethodDelete, "/replay/"+id, nil, nil)
}

// consume dials a session's stream address and hands the connection to fn.
func consume(ctx context.Context, addr string, fn func(io.Reader) error) error {
	var dialer net.Dialer
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	return fn(conn)
}

// detect is one subscriber: the stream through replay.Consume into the
// streaming detector, then the verdict against the labels.
func (w *replayWorkload) detect(r io.Reader, sampled bool) (sub subscriber) {
	det := ids.NewStreamDetector(ids.DefaultThresholds(), detectWindowMicros, func(a ids.Alert) {
		sub.alerts = append(sub.alerts, a)
	})
	add := func(_ uint64, f netflow.Flow, _ []byte) error {
		det.Add(f) // a late flow is counted by the detector, and checked below
		return nil
	}
	if sampled {
		n := 0
		add = func(_ uint64, f netflow.Flow, _ []byte) error {
			if n++; n%detectSampleEvery != 0 {
				det.Add(f)
				return nil
			}
			t0 := time.Now()
			det.Add(f)
			sub.detect += time.Since(t0) * detectSampleEvery
			return nil
		}
	}
	sub.stats, sub.err = replay.Consume(r, add)
	det.Flush()
	sub.late = det.LateFlows()
	sub.outcome = w.truth.Score(sub.alerts)
	return sub
}

func (w *replayWorkload) op(ctx context.Context, lane, i int, rec *recorder) outcome {
	root := rec.begin(rootSpan, i, 0, -1)
	defer rec.end(root)
	sess := session{op: i}
	t0 := time.Now()
	id := rec.begin("serve.replay_start", i, 0, root)
	st, err := w.startSession(ctx, subscribers)
	rec.end(id)
	sess.start = time.Since(t0)
	if err != nil {
		return outcome{dur: sess.start, err: fmt.Errorf("replay-detect session %d: %w", i, err)}
	}

	streamStart := time.Now()
	id = rec.begin("replay.stream", i, 0, root)
	var wg sync.WaitGroup
	for s := range sess.subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := consume(ctx, st.Addr, func(r io.Reader) error {
				sess.subs[s] = w.detect(r, rec != nil)
				return nil
			})
			if err != nil {
				sess.subs[s].err = err
			}
		}()
	}
	wg.Wait()
	rec.end(id)
	out := outcome{dur: time.Since(t0)}
	// The detector ran inside the stream on both subscribers at once; its
	// mean share is nested so the table separates it from wire and decode.
	rec.add("ids.detect", i, 0, id, streamStart, (sess.subs[0].detect+sess.subs[1].detect)/subscribers)

	if rec != nil {
		id = rec.begin("serve.replay_status", i, 0, root)
		err = w.d.doJSON(ctx, http.MethodGet, "/replay/"+st.ID, nil, &sess.status)
		rec.end(id)
		if err != nil {
			out.err = fmt.Errorf("replay-detect session %d: %w", i, err)
		}
	}
	id = rec.begin("serve.replay_stop", i, 0, root)
	err = w.stopSession(ctx, st.ID)
	rec.end(id)
	if err != nil {
		out.err = fmt.Errorf("replay-detect session %d: %w", i, err)
	}
	for _, sub := range sess.subs {
		out.edges += int64(sub.stats.Received)
	}
	w.sessions = append(w.sessions, sess)
	return out
}

// reference runs the detector off-line over the decoded artifact: what every
// subscriber must reproduce over the wire.
func (w *replayWorkload) reference() (alerts []ids.Alert, dur time.Duration) {
	det := ids.NewStreamDetector(ids.DefaultThresholds(), detectWindowMicros, func(a ids.Alert) {
		alerts = append(alerts, a)
	})
	t0 := time.Now()
	for _, f := range w.truth.Flows {
		det.Add(f)
	}
	det.Flush()
	return alerts, time.Since(t0)
}

// checkSession holds one session against the off-line reference.
func checkSession(sess session, flows int, want []ids.Alert, wantF1 float64) error {
	for s, sub := range sess.subs {
		switch {
		case sub.err != nil:
			return fmt.Errorf("session %d subscriber %d: %w", sess.op, s, sub.err)
		case int(sub.stats.Header.Flows) != flows:
			return fmt.Errorf("session %d subscriber %d: header announces %d flows, artifact has %d", sess.op, s, sub.stats.Header.Flows, flows)
		case sub.stats.Received != sub.stats.Header.Flows || sub.stats.Gaps != 0 || !sub.stats.Clean:
			return fmt.Errorf("session %d subscriber %d: received %d of %d flows, %d gaps, clean=%v",
				sess.op, s, sub.stats.Received, sub.stats.Header.Flows, sub.stats.Gaps, sub.stats.Clean)
		case sub.late != 0:
			return fmt.Errorf("session %d subscriber %d: detector rejected %d late flows", sess.op, s, sub.late)
		case !slices.Equal(sub.alerts, want):
			return fmt.Errorf("session %d subscriber %d: %d alerts differ from the %d of the off-line pass", sess.op, s, len(sub.alerts), len(want))
		case sub.outcome.F1() != wantF1:
			return fmt.Errorf("session %d subscriber %d: F1 %.4f, off-line pass scores %.4f", sess.op, s, sub.outcome.F1(), wantF1)
		}
	}
	return nil
}

func (w *replayWorkload) finish(ctx context.Context) []error {
	want, _ := w.reference()
	wantF1 := w.truth.Score(want).F1()
	var errs []error
	if len(want) == 0 {
		errs = append(errs, fmt.Errorf("replay-detect: the off-line detector raises no alert, the verdict checks nothing"))
	}
	for _, sess := range w.sessions {
		if w.tamper != nil {
			w.tamper(&sess)
		}
		if err := checkSession(sess, len(w.truth.Flows), want, wantF1); err != nil {
			errs = append(errs, fmt.Errorf("replay-detect: %w", err))
		}
	}
	return errs
}

func (w *replayWorkload) layers(ctx context.Context, ms metricSet, untraced phase) error {
	flows := len(w.truth.Flows)
	perSec := func(d time.Duration) float64 { return float64(flows) / d.Seconds() }

	var starts []time.Duration
	var emit []float64
	var dropped, gaps int64
	for _, sess := range w.sessions {
		for _, sub := range sess.subs {
			gaps += int64(sub.stats.Gaps)
		}
		if sess.status.ID == "" {
			continue // untraced session: no status was read
		}
		starts = append(starts, sess.start)
		emit = append(emit, sess.status.FlowsPerSec)
		dropped += sess.status.Dropped
	}
	ms.setMedianMS("serve.replay_start_ms", starts)
	ms.set("replay.emit_flows_per_s", median(emit), len(emit))
	ms.set("replay.dropped", float64(dropped), len(emit))
	ms.set("replay.gaps", float64(gaps), len(w.sessions))
	setServerCounters(ms, w.d.srv)

	var getMem, decodeFile []time.Duration
	for r := 0; r < w.sz.ProbeReps; r++ {
		t0 := time.Now()
		if _, ok := w.d.srv.Cache().Get(w.id); !ok {
			return fmt.Errorf("the scenario artifact left the cache")
		}
		getMem = append(getMem, time.Since(t0))
		t0 = time.Now()
		if _, err := replay.ReadFlowFile(bytes.NewReader(w.artifact)); err != nil {
			return err
		}
		decodeFile = append(decodeFile, time.Since(t0))
	}
	ms.set("serve.cache_get_mem_us", quantileMS(getMem, 0.5)*1e3, len(getMem))
	ms.setMedianMS("replay.decode_file_ms", decodeFile)

	// The four rates of the stream path, each per stream. The slowest one
	// bounds what a session can deliver.
	var drain, decode, detect []float64
	var wire []byte
	for r := 0; r < w.sz.ProbeReps; r++ {
		// Same session shape, subscribers that only verify framing.
		st, err := w.startSession(ctx, subscribers)
		if err != nil {
			return err
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, subscribers)
		for s := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[s] = consume(ctx, st.Addr, func(r io.Reader) error {
					_, err := replay.Consume(r, nil)
					return err
				})
			}()
		}
		wg.Wait()
		drain = append(drain, perSec(time.Since(t0)))
		if err := w.stopSession(ctx, st.ID); err != nil {
			return err
		}
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("drain probe: %w", err)
			}
		}
	}
	// One session captured raw, then decoded without a socket.
	st, err := w.startSession(ctx, 1)
	if err != nil {
		return err
	}
	err = consume(ctx, st.Addr, func(r io.Reader) (err error) { wire, err = io.ReadAll(r); return err })
	if err != nil {
		return fmt.Errorf("capture probe: %w", err)
	}
	if err := w.stopSession(ctx, st.ID); err != nil {
		return err
	}
	for r := 0; r < w.sz.ProbeReps; r++ {
		t0 := time.Now()
		if _, err := replay.Consume(bytes.NewReader(wire), nil); err != nil {
			return fmt.Errorf("decode probe: %w", err)
		}
		decode = append(decode, perSec(time.Since(t0)))
		_, d := w.reference()
		detect = append(detect, perSec(d))
	}
	ms.set("replay.drain_flows_per_s", median(drain), len(drain))
	ms.set("replay.decode_flows_per_s", median(decode), len(decode))
	ms.set("ids.stream_flows_per_s", median(detect), len(detect))
	ms.set("replay.wire_bytes_per_flow", float64(len(wire))/float64(flows), 1)
	return nil
}

// streamRates are the four per-stream rates whose minimum bounds flows/s.
var streamRates = []string{"replay.emit_flows_per_s", "replay.drain_flows_per_s", "replay.decode_flows_per_s", "ids.stream_flows_per_s"}

// slowestStreamRate names the stream-path bottleneck among the measured rates.
func slowestStreamRate(ms metricSet) (name string) {
	for _, n := range streamRates {
		if m, ok := ms[n]; ok && (name == "" || m.Value < ms[name].Value) {
			name = n
		}
	}
	return name
}
