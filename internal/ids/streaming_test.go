package ids

import (
	"cmp"
	"errors"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"csb/internal/netflow"
)

// streamScan builds host-scan probes with start times spread over a span.
func streamScan(victim uint32, n int, startMicros, spanMicros int64) []netflow.Flow {
	return at(hostScanFlows(victim, n), startMicros, spanMicros)
}

func collectAlerts(t *testing.T, window int64, flows []netflow.Flow) []Alert {
	t.Helper()
	sort.Slice(flows, func(i, j int) bool { return flows[i].StartMicros < flows[j].StartMicros })
	var alerts []Alert
	s := NewStreamDetector(DefaultThresholds(), window, func(a Alert) { alerts = append(alerts, a) })
	for _, f := range flows {
		s.Add(f)
	}
	s.Flush()
	return alerts
}

func TestStreamDetectsAttackInWindow(t *testing.T) {
	// 300 probes within one minute: one alert at window close.
	flows := streamScan(0x0a000001, 300, 0, 30*1e6)
	alerts := collectAlerts(t, 60*1e6, flows)
	if len(alerts) != 1 || alerts[0].Type != AttackHostScan || alerts[0].IP != 0x0a000001 {
		t.Fatalf("alerts = %v", alerts)
	}
}

func TestStreamQuietTrafficNoAlerts(t *testing.T) {
	flows := backgroundFlows(t, 30, 300, 9)
	tr := TrainThresholds(flows, 0.99, 2)
	var alerts []Alert
	s := NewStreamDetector(tr, 60*1e6, func(a Alert) { alerts = append(alerts, a) })
	sort.Slice(flows, func(i, j int) bool { return flows[i].StartMicros < flows[j].StartMicros })
	for _, f := range flows {
		s.Add(f)
	}
	s.Flush()
	if len(alerts) > 2 {
		t.Fatalf("%d alerts on clean traffic", len(alerts))
	}
}

func TestStreamSuppressesContinuation(t *testing.T) {
	// An attack spanning 3 consecutive windows alerts once.
	var flows []netflow.Flow
	for w := int64(0); w < 3; w++ {
		flows = append(flows, streamScan(0x0a000002, 300, w*60*1e6, 50*1e6)...)
	}
	alerts := collectAlerts(t, 60*1e6, flows)
	if len(alerts) != 1 {
		t.Fatalf("continuation not suppressed: %d alerts", len(alerts))
	}
}

func TestStreamReAlertsAfterGap(t *testing.T) {
	// Attack in window 0, silence in windows 1-2, attack again in window 3:
	// two alerts.
	var flows []netflow.Flow
	flows = append(flows, streamScan(0x0a000003, 300, 0, 50*1e6)...)
	// One benign keep-alive flow per quiet window so windows advance.
	flows = append(flows, netflow.Flow{SrcIP: 1, DstIP: 2, StartMicros: 70 * 1e6, EndMicros: 70*1e6 + 1000, OutPkts: 1, OutBytes: 100})
	flows = append(flows, netflow.Flow{SrcIP: 1, DstIP: 2, StartMicros: 130 * 1e6, EndMicros: 130*1e6 + 1000, OutPkts: 1, OutBytes: 100})
	flows = append(flows, streamScan(0x0a000003, 300, 3*60*1e6, 50*1e6)...)
	alerts := collectAlerts(t, 60*1e6, flows)
	if len(alerts) != 2 {
		t.Fatalf("gap re-alert failed: %d alerts (%v)", len(alerts), alerts)
	}
}

func TestStreamAttackBelowWindowThresholdSplit(t *testing.T) {
	// The same probe volume diluted over many windows falls below the
	// per-window flow threshold: the streaming detector's window length is
	// a sensitivity knob.
	flows := streamScan(0x0a000004, 300, 0, 50*60*1e6) // 6 probes per minute
	alerts := collectAlerts(t, 60*1e6, flows)
	if len(alerts) != 0 {
		t.Fatalf("slow scan unexpectedly detected: %v", alerts)
	}
	// A longer window catches it again.
	alerts = collectAlerts(t, 60*60*1e6, flows)
	if len(alerts) != 1 {
		t.Fatalf("hour window missed the scan: %v", alerts)
	}
}

func TestStreamFlushIdempotentAndPending(t *testing.T) {
	var alerts []Alert
	s := NewStreamDetector(DefaultThresholds(), 0, func(a Alert) { alerts = append(alerts, a) })
	if s.window != DefaultStreamWindowMicros {
		t.Fatalf("default window = %d", s.window)
	}
	for _, f := range streamScan(0x0a000005, 300, 0, 30*1e6) {
		s.Add(f)
	}
	if s.open != 300 {
		t.Fatalf("pending = %d", s.open)
	}
	s.Flush()
	s.Flush() // second flush is a no-op
	if s.open != 0 {
		t.Fatalf("pending after flush = %d", s.open)
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d", len(alerts))
	}
}

func TestStreamMatchesOfflineOnSingleWindow(t *testing.T) {
	// With one giant window, streaming must reproduce offline detection.
	flows := backgroundFlows(t, 30, 300, 10)
	flows = append(flows, streamScan(0x0a000006, 1500, flows[0].StartMicros, 1e6)...)
	sort.Slice(flows, func(i, j int) bool { return flows[i].StartMicros < flows[j].StartMicros })
	tr := TrainThresholds(backgroundFlows(t, 30, 300, 11), 0.99, 2)

	offline := NewDetector(tr).Detect(flows)
	var online []Alert
	s := NewStreamDetector(tr, 1<<60, func(a Alert) { online = append(online, a) })
	for _, f := range flows {
		s.Add(f)
	}
	s.Flush()
	if len(online) != len(offline) {
		t.Fatalf("online %d alerts vs offline %d", len(online), len(offline))
	}
	for i := range online {
		if online[i].Type != offline[i].Type || online[i].IP != offline[i].IP {
			t.Fatalf("alert %d differs: %v vs %v", i, online[i], offline[i])
		}
	}
}

// A flow starting exactly at a window boundary belongs to the next window:
// the window is [start, start+window), so the boundary flow closes the
// current window first and must not inflate its pattern counts.
func TestStreamWindowBoundaryFlow(t *testing.T) {
	const window = 60 * 1e6
	s := NewStreamDetector(DefaultThresholds(), window, func(Alert) {})
	s.Add(netflow.Flow{SrcIP: 1, DstIP: 2, StartMicros: 0, EndMicros: 1000, OutPkts: 1})
	s.Add(netflow.Flow{SrcIP: 1, DstIP: 2, StartMicros: window - 1, EndMicros: window, OutPkts: 1})
	if s.open != 2 || s.windowIdx != 0 {
		t.Fatalf("pre-boundary: pending=%d windowIdx=%d", s.open, s.windowIdx)
	}
	// Exactly on the boundary: closes window 0, lands alone in window 1.
	s.Add(netflow.Flow{SrcIP: 1, DstIP: 2, StartMicros: window, EndMicros: window + 1000, OutPkts: 1})
	if s.open != 1 || s.windowIdx != 1 || s.start != window {
		t.Fatalf("boundary flow misplaced: pending=%d windowIdx=%d start=%d",
			s.open, s.windowIdx, s.start)
	}
}

// An attack whose final probe lands exactly on the window boundary keeps
// that probe out of the first window: 299 probes inside plus 1 on the edge
// must behave like 299, not 300.
func TestStreamWindowBoundaryExcludesEdgeProbe(t *testing.T) {
	const window = 60 * 1e6
	victim := uint32(0x0a000007)
	flows := hostScanFlows(victim, 300)
	for i := range flows {
		flows[i].StartMicros = int64(i) * window / 300
		flows[i].EndMicros = flows[i].StartMicros + 1000
	}
	flows[299].StartMicros = window // exactly on the edge
	flows[299].EndMicros = window + 1000

	alerts := collectAlerts(t, window, flows)
	if len(alerts) != 1 {
		t.Fatalf("%d alerts (%v), want 1", len(alerts), alerts)
	}
	// The alert's pattern is the proof: the closed window aggregated 299
	// probes, not 300 — the boundary probe was held for the next window.
	if got := alerts[0].Pattern.NFlows; got != 299 {
		t.Fatalf("window 0 aggregated %d flows, want 299 (edge probe leaked in)", got)
	}
}

// Duplicate-alert suppression must not bridge an empty intervening window:
// attack in window 0, nothing at all in window 1, attack again in window 2
// is a pause-and-resume and re-alerts.
func TestStreamReAlertsAcrossEmptyWindow(t *testing.T) {
	const window = 60 * 1e6
	var flows []netflow.Flow
	flows = append(flows, streamScan(0x0a000008, 300, 0, 50*1e6)...)
	flows = append(flows, streamScan(0x0a000008, 300, 2*window, 50*1e6)...)
	alerts := collectAlerts(t, window, flows)
	if len(alerts) != 2 {
		t.Fatalf("empty window bridged suppression: %d alerts (%v)", len(alerts), alerts)
	}
	// Control: the same resumed attack in the adjacent window is suppressed.
	flows = flows[:0]
	flows = append(flows, streamScan(0x0a000008, 300, 0, 50*1e6)...)
	flows = append(flows, streamScan(0x0a000008, 300, window, 50*1e6)...)
	if alerts := collectAlerts(t, window, flows); len(alerts) != 1 {
		t.Fatalf("adjacent continuation not suppressed: %d alerts", len(alerts))
	}
}

// With a reorder horizon, jittered arrival order produces exactly the alerts
// of in-order arrival.
func TestStreamReorderWithinHorizon(t *testing.T) {
	const window = 60 * 1e6
	var flows []netflow.Flow
	flows = append(flows, streamScan(0x0a000009, 300, 0, 50*1e6)...)
	flows = append(flows, streamScan(0x0a000009, 300, 2*window, 50*1e6)...)
	sort.Slice(flows, func(i, j int) bool { return flows[i].StartMicros < flows[j].StartMicros })
	inOrder := collectAlerts(t, window, flows)

	// Jitter arrival: swap neighbors several positions apart (well inside a
	// 5s horizon given probes are ~167ms apart).
	jittered := append([]netflow.Flow(nil), flows...)
	for i := 0; i+7 < len(jittered); i += 8 {
		jittered[i], jittered[i+7] = jittered[i+7], jittered[i]
	}
	var alerts []Alert
	s := NewStreamDetector(DefaultThresholds(), window, func(a Alert) { alerts = append(alerts, a) })
	s.SetReorderHorizon(5 * 1e6)
	for _, f := range jittered {
		if err := s.Add(f); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	s.Flush()
	if s.LateFlows() != 0 {
		t.Fatalf("%d flows dropped as late", s.LateFlows())
	}
	if len(alerts) != len(inOrder) {
		t.Fatalf("jittered: %d alerts, in-order: %d", len(alerts), len(inOrder))
	}
	for i := range alerts {
		if alerts[i].Type != inOrder[i].Type || alerts[i].IP != inOrder[i].IP {
			t.Fatalf("alert %d differs: %v vs %v", i, alerts[i], inOrder[i])
		}
	}
}

// A flow older than the current window (no horizon) or older than the
// horizon is rejected with a typed error and counted, leaving window
// accounting untouched.
func TestStreamLateFlowTypedError(t *testing.T) {
	s := NewStreamDetector(DefaultThresholds(), 60*1e6, func(Alert) {})
	s.Add(netflow.Flow{SrcIP: 1, DstIP: 2, StartMicros: 120 * 1e6, EndMicros: 120*1e6 + 1, OutPkts: 1})
	err := s.Add(netflow.Flow{SrcIP: 3, DstIP: 4, StartMicros: 10 * 1e6, EndMicros: 10*1e6 + 1, OutPkts: 1})
	var late *LateFlowError
	if !errors.As(err, &late) {
		t.Fatalf("err = %v, want *LateFlowError", err)
	}
	if late.StartMicros != 10*1e6 {
		t.Fatalf("late = %+v", late)
	}
	if s.LateFlows() != 1 || s.open != 1 {
		t.Fatalf("late=%d pending=%d", s.LateFlows(), s.open)
	}

	// With a horizon: in-horizon reordering is absorbed, beyond-horizon is
	// the same typed error.
	s = NewStreamDetector(DefaultThresholds(), 1e6, func(Alert) {})
	s.SetReorderHorizon(10 * 1e6)
	for _, start := range []int64{0, 30 * 1e6, 5 * 1e6, 50 * 1e6} {
		if err := s.Add(netflow.Flow{SrcIP: 1, DstIP: 2, StartMicros: start, EndMicros: start + 1, OutPkts: 1}); err != nil {
			t.Fatalf("Add(%d): %v", start, err)
		}
	}
	err = s.Add(netflow.Flow{SrcIP: 1, DstIP: 2, StartMicros: 25 * 1e6, EndMicros: 25*1e6 + 1, OutPkts: 1})
	if !errors.As(err, &late) {
		t.Fatalf("beyond-horizon err = %v, want *LateFlowError", err)
	}
	if s.LateFlows() != 1 {
		t.Fatalf("late = %d", s.LateFlows())
	}
}

// Regression: a large time gap between flows must not make Add iterate one
// empty window at a time. A two-year quiet period at a one-minute cadence is
// ~10^6 windows; the fast-forward makes it O(1). The test both finishes
// quickly and checks the semantics across the jump: the gap breaks
// suppression, so the resumed attack re-alerts, and window alignment is
// preserved.
func TestStreamSparseTraceFastForward(t *testing.T) {
	const window = 60 * 1e6
	const gap int64 = 2 * 365 * 24 * 3600 * 1e6 // two years in microseconds
	var flows []netflow.Flow
	flows = append(flows, streamScan(0x0a000004, 300, 0, 50*1e6)...)
	flows = append(flows, streamScan(0x0a000004, 300, gap, 50*1e6)...)
	alerts := collectAlerts(t, window, flows)
	if len(alerts) != 2 {
		t.Fatalf("sparse trace: %d alerts, want 2 (gap breaks suppression)", len(alerts))
	}

	// White-box: after the jump the window origin must stay aligned to the
	// first flow's start plus a whole number of windows.
	s := NewStreamDetector(DefaultThresholds(), window, func(Alert) {})
	s.Add(netflow.Flow{SrcIP: 1, DstIP: 2, StartMicros: 7, EndMicros: 8, OutPkts: 1})
	s.Add(netflow.Flow{SrcIP: 1, DstIP: 2, StartMicros: 7 + gap, EndMicros: 8 + gap, OutPkts: 1})
	if (s.start-7)%window != 0 {
		t.Fatalf("window origin %d not aligned to first flow + k*window", s.start)
	}
	if s.start > 7+gap || 7+gap >= s.start+window {
		t.Fatalf("flow at %d outside current window [%d, %d)", 7+gap, s.start, s.start+window)
	}
	if want := (s.start - 7) / window; s.windowIdx != want {
		t.Fatalf("windowIdx = %d, want %d", s.windowIdx, want)
	}
}

// at stamps flows with start times spread evenly over [startMicros,
// startMicros+spanMicros).
func at(flows []netflow.Flow, startMicros, spanMicros int64) []netflow.Flow {
	for i := range flows {
		flows[i].StartMicros = startMicros + int64(i)*spanMicros/int64(len(flows))
		flows[i].EndMicros = flows[i].StartMicros + 1000
	}
	return flows
}

// quietFlows is n small flows among the given number of hosts, a handful of
// ports each.
func quietFlows(rng *rand.Rand, n, hosts int) []netflow.Flow {
	out := make([]netflow.Flow, n)
	for i := range out {
		out[i] = netflow.Flow{
			SrcIP: 0x0a000001 + uint32(rng.IntN(hosts)), DstIP: 0x0a000001 + uint32(rng.IntN(hosts)),
			SrcPort: uint16(1024 + rng.IntN(60000)), DstPort: []uint16{22, 53, 80, 443, 8080}[rng.IntN(5)],
			OutBytes: 200 + rng.Int64N(4000), InBytes: rng.Int64N(20000),
			OutPkts: 4 + rng.Int64N(10), InPkts: 3 + rng.Int64N(20), SYNCount: 2, ACKCount: 10,
		}
	}
	return out
}

// sessionFlows is a stream shaped like the benchmark's replay-detect
// scenario: windows one-second windows of perWindow background flows among
// hosts hosts, with a 2,000-port scan, a 5,000-flow flood and a 200×20 DDoS
// in windows 3, 5 and 7.
func sessionFlows(windows, perWindow, hosts int) []netflow.Flow {
	const window = 1e6
	rng := rand.New(rand.NewPCG(18, 4))
	var flows []netflow.Flow
	for w := range windows {
		flows = append(flows, at(quietFlows(rng, perWindow, hosts), int64(w)*window, window)...)
	}
	flows = append(flows, at(hostScanFlows(0x0a000002, 2000), 3*window, window)...)
	flows = append(flows, at(synFloodFlows(0x0a000003, 5000), 5*window, window)...)
	flows = append(flows, at(ddosFlows(0x0a000004, 200, 20), 7*window, window)...)
	netflow.SortByStart(flows)
	return flows
}

// referenceStream is the detector the streaming one must equal: the flows cut
// into windows by hand, each window aggregated by the map-of-maps reference
// and classified, with its own consecutive-window suppression.
func referenceStream(th Thresholds, window int64, flows []netflow.Flow) (alerts []Alert, suppressed int) {
	flows = slices.Clone(flows)
	netflow.SortByStart(flows)
	det := NewDetector(th)
	last := make(map[streamKey]int64)
	for i := 0; i < len(flows); {
		idx := (flows[i].StartMicros - flows[0].StartMicros) / window
		j := i
		for j < len(flows) && (flows[j].StartMicros-flows[0].StartMicros)/window == idx {
			j++
		}
		byDst, bySrc := referenceAggregate(flows[i:j])
		for _, a := range det.classify(nil, byDst, bySrc) {
			k := streamKey{ip: a.IP, typ: a.Type, byDst: a.ByDst}
			prev, fired := last[k]
			last[k] = idx
			if fired && prev == idx-1 {
				suppressed++
				continue
			}
			alerts = append(alerts, a)
		}
		i = j
	}
	return alerts, suppressed
}

// TestStreamMatchesWindowedReference feeds random multi-window streams to the
// on-arrival detector — in order, and jittered under a reorder horizon — and
// wants the alerts of the per-window reference. Each stream holds a
// 5,000-flow window followed by 200 small ones (tables grown by the first
// must read empty in every one after), attacks that continue, pause and
// resume, a run of empty windows and a gap long enough to fast-forward.
func TestStreamMatchesWindowedReference(t *testing.T) {
	const window = 1e6
	for seed := range uint64(3) {
		rng := rand.New(rand.NewPCG(18, seed))
		var flows []netflow.Flow
		w := int64(0)
		fill := func(fs []netflow.Flow) { flows = append(flows, at(fs, w*window, window)...) }
		for range 10 {
			fill(quietFlows(rng, 1+rng.IntN(300), 1+rng.IntN(8)))
			w++
		}
		fill(synFloodFlows(0x0a000003, 5000))
		fill(quietFlows(rng, 400, 6))
		w++
		for i := range 200 {
			fill(quietFlows(rng, 1+rng.IntN(40), 1+rng.IntN(6)))
			if i%50 < 3 || i%50 == 5 { // three windows on, one off, one on
				fill(hostScanFlows(0x0a000002, 100+rng.IntN(200)))
				fill(networkScanFlows(0x0a000005, 60))
			}
			if i%70 == 20 {
				fill(ddosFlows(0x0a000004, 50+rng.IntN(50), 4))
			}
			w++
		}
		w += 50 // empty windows
		for range 5 {
			fill(hostScanFlows(0x0a000002, 300))
			w++
		}
		w += 3_000_000 // a month at this cadence
		for range 5 {
			fill(hostScanFlows(0x0a000002, 300))
			fill(quietFlows(rng, 100, 4))
			w++
		}

		want, suppressed := referenceStream(DefaultThresholds(), window, flows)
		if len(want) < 10 || suppressed < 5 {
			t.Fatalf("seed %d: the reference raises %d alerts and suppresses %d; the stream checks too little", seed, len(want), suppressed)
		}

		run := func(name string, horizon int64, arrival []netflow.Flow) {
			t.Helper()
			var got []Alert
			s := NewStreamDetector(DefaultThresholds(), window, func(a Alert) { got = append(got, a) })
			s.SetReorderHorizon(horizon)
			for i := range arrival {
				if err := s.Add(arrival[i]); err != nil {
					t.Fatalf("seed %d %s: Add: %v", seed, name, err)
				}
			}
			s.Flush()
			if s.open != 0 || len(s.pending) != 0 || s.LateFlows() != 0 {
				t.Fatalf("seed %d %s: after Flush pending %d, buffered %d, late %d", seed, name, s.open, len(s.pending), s.LateFlows())
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d %s: %d alerts, the reference raises %d\n got %v\nwant %v", seed, name, len(got), len(want), got, want)
			}
		}
		inOrder := slices.Clone(flows)
		netflow.SortByStart(inOrder)
		run("in order", 0, inOrder)

		// Arrival displaced by up to the horizon: no flow is late, many cross a
		// window boundary out of order.
		const horizon = 300_000
		type arrival struct {
			f  netflow.Flow
			at int64
		}
		jittered := make([]arrival, len(inOrder))
		for i, f := range inOrder {
			jittered[i] = arrival{f, f.StartMicros + rng.Int64N(horizon)}
		}
		slices.SortStableFunc(jittered, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
		reordered := make([]netflow.Flow, len(jittered))
		for i := range jittered {
			reordered[i] = jittered[i].f
		}
		if slices.IsSortedFunc(reordered, func(a, b netflow.Flow) int { return cmp.Compare(a.StartMicros, b.StartMicros) }) {
			t.Fatalf("seed %d: the jitter reordered nothing", seed)
		}
		run("reordered", horizon, reordered)
	}
}

// TestStreamLastFiredStaysBounded runs 10,000 windows in which a different
// scanner alerts every window: suppression only ever looks one window back,
// so the detector may not remember more than that.
func TestStreamLastFiredStaysBounded(t *testing.T) {
	const window = 1e6
	alerts := 0
	s := NewStreamDetector(DefaultThresholds(), window, func(Alert) { alerts++ })
	for w := range 10_000 {
		for _, f := range at(networkScanFlows(0x0b000000+uint32(w), 60), int64(w)*window, window) {
			s.Add(f)
		}
		if n := len(s.lastFired); n > 2 {
			t.Fatalf("window %d: %d suppression entries held", w, n)
		}
	}
	s.Flush()
	if alerts != 10_000 {
		t.Fatalf("%d alerts from 10,000 scanners", alerts)
	}
}

// TestStreamAddAllocatesNothingWarm: once a session's largest windows have
// sized the tables, adding flows and closing windows — alerting ones
// included — allocates nothing.
func TestStreamAddAllocatesNothingWarm(t *testing.T) {
	const window = 1e6
	flows := sessionFlows(12, 1000, 300)
	alerts := 0
	s := NewStreamDetector(DefaultThresholds(), window, func(Alert) { alerts++ })
	pass := int64(0)
	session := func() {
		for i := range flows {
			f := flows[i]
			f.StartMicros += pass * 12 * window
			if err := s.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		pass++
	}
	session()
	session()
	warm := alerts
	if avg := testing.AllocsPerRun(5, session); avg != 0 {
		t.Fatalf("%.1f allocations per 12-window session once warm", avg)
	}
	if alerts == warm {
		t.Fatal("no window alerted while counting")
	}
}

// BenchmarkStreamDetectorSession is one replay-detect subscriber's detector
// work: ≈ 511 one-second windows of ≈ 1,000 flows, the three attacks early on.
func BenchmarkStreamDetectorSession(b *testing.B) {
	flows := sessionFlows(511, 1000, 300)
	alerts := 0
	b.ReportAllocs()
	for b.Loop() {
		s := NewStreamDetector(DefaultThresholds(), 1e6, func(Alert) { alerts++ })
		for i := range flows {
			s.Add(flows[i])
		}
		s.Flush()
	}
	if alerts == 0 {
		b.Fatal("no alerts")
	}
	b.ReportMetric(float64(len(flows))*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}
