package scenario

import (
	"bytes"
	"net"
	"testing"
	"time"

	"csb/internal/attack"
	"csb/internal/cluster"
	"csb/internal/ids"
	"csb/internal/netflow"
	"csb/internal/replay"
)

// e2eSpec is a mixed scenario hot enough for the detector to see every
// attack class (sized like the attack package's full-scenario tests).
func e2eSpec() *Spec {
	return &Spec{
		Seed: 5,
		Background: Background{
			Source: SourceTrace, Hosts: 40, Sessions: 600,
		},
		Attacks: []Attack{
			{Type: TypeHostScan, StartMS: 5_000, Count: 1500, Attacker: 0xbad00001, Victim: 0x0a000003},
			{Type: TypeNetworkScan, StartMS: 65_000, Count: 150, Attacker: 0xbad00002, Port: 22},
			{Type: TypeSYNFlood, StartMS: 125_000, Count: 2500, Victim: 0x0a000005, Port: 80},
			{Type: TypeDDoS, StartMS: 185_000, Count: 80, FlowsPerSource: 3, Victim: 0x0a000009},
		},
	}
}

// replayOverWire serves flows on a loopback CSBS1 stream and consumes them
// back, returning the consumed flows and the concatenated payload bytes.
func replayOverWire(t *testing.T, flows []netflow.Flow, sink func(netflow.Flow)) []byte {
	t.Helper()
	srv, err := replay.NewServer(flows, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Dial returns before the server has accepted: starting now would emit
	// the head of the stream to nobody.
	if err := srv.AwaitSubscribers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	st, err := replay.Consume(conn, func(_ uint64, f netflow.Flow, raw []byte) error {
		payload.Write(raw)
		sink(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Clean || st.Gaps != 0 || st.Received != uint64(len(flows)) {
		t.Fatalf("stream not clean: %+v", st)
	}
	if st.Received+st.Gaps+st.Head+st.Tail != st.Header.Flows || st.Head != 0 || st.Tail != 0 {
		t.Fatalf("stream does not account for the run: %+v", st)
	}
	return payload.Bytes()
}

// TestScenarioPipelineEndToEnd is the full detection-quality loop the
// tentpole ships: spec → labeled artifact → CSBS1 replay → streaming
// detector → attack.Score, asserting the labels and flow bytes survive the
// wire and the ground truth scores the detector's alerts.
func TestScenarioPipelineEndToEnd(t *testing.T) {
	sp := mustNormalize(t, e2eSpec())
	sc, err := Compile(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := EncodeLabeled(sc)
	if err != nil {
		t.Fatal(err)
	}

	// The consumer side knows only the artifact: decode ground truth from
	// it, train thresholds on its labeled background, detect on the wire.
	truth, err := DecodeLabeled(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var benign []netflow.Flow
	for i, a := range truth.FlowAttack {
		if a == attack.BackgroundFlow {
			benign = append(benign, truth.Flows[i])
		}
	}
	var alerts []ids.Alert
	det := ids.NewStreamDetector(ids.TrainThresholds(benign, 0.99, 2), 60*1e6, func(a ids.Alert) {
		alerts = append(alerts, a)
	})
	det.SetReorderHorizon(5 * 1e6)

	payload := replayOverWire(t, truth.Flows, func(f netflow.Flow) {
		det.Add(f)
	})
	det.Flush()

	// Byte identity: a gap-free subscriber's concatenated payloads are the
	// artifact's flow section, exactly.
	section := artifact[replay.FlowFileHeaderLen : replay.FlowFileHeaderLen+len(truth.Flows)*replay.FlowRecordLen]
	if !bytes.Equal(payload, section) {
		t.Fatal("wire payload differs from the artifact flow section")
	}
	// Ordering: the compiled scenario streams through the reorder horizon
	// with zero late drops (the injector ordering fix, end to end).
	if late := det.LateFlows(); late != 0 {
		t.Fatalf("detector dropped %d flows as late, want 0", late)
	}

	out := truth.Score(alerts)
	if out.Recall() < 0.75 {
		t.Fatalf("recall = %g (%+v, %d alerts), want >= 0.75", out.Recall(), out, len(alerts))
	}
	if out.Precision() < 0.5 {
		t.Fatalf("precision = %g (%+v)", out.Precision(), out)
	}

	// Wire determinism: scoring the local flows yields the identical
	// outcome — nothing about the stream changed the detection input.
	var localAlerts []ids.Alert
	ldet := ids.NewStreamDetector(ids.TrainThresholds(benign, 0.99, 2), 60*1e6, func(a ids.Alert) {
		localAlerts = append(localAlerts, a)
	})
	ldet.SetReorderHorizon(5 * 1e6)
	for _, f := range sc.Flows {
		ldet.Add(f)
	}
	ldet.Flush()
	if lout := sc.Score(localAlerts); lout != out {
		t.Fatalf("wire outcome %+v differs from local outcome %+v", out, lout)
	}
}

// TestScenarioScoresDeterministicAcrossMaxParallel compiles a
// generator-background scenario at real parallelism 1 and 16 and asserts
// both the artifact bytes and the resulting detection scores are identical.
func TestScenarioScoresDeterministicAcrossMaxParallel(t *testing.T) {
	spec := func() *Spec {
		return mustNormalize(t, &Spec{
			Seed: 11,
			Background: Background{
				Source: SourcePGPBA, Hosts: 30, Sessions: 400, Edges: 4000,
			},
			Attacks: []Attack{
				{Type: TypeHostScan, StartMS: 1_000, Count: 1200},
				{Type: TypeSYNFlood, StartMS: 30_000, Count: 1500},
			},
		})
	}
	score := func(maxParallel int) (attack.Outcome, []byte) {
		c := cluster.MustNew(cluster.Config{Nodes: 1, CoresPerNode: 4, MaxParallel: maxParallel})
		sc, err := Compile(spec(), c)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeLabeled(sc)
		if err != nil {
			t.Fatal(err)
		}
		var alerts []ids.Alert
		det := ids.NewStreamDetector(ids.DefaultThresholds(), 60*1e6, func(a ids.Alert) {
			alerts = append(alerts, a)
		})
		for _, f := range sc.Flows {
			if err := det.Add(f); err != nil {
				t.Fatalf("late flow in compiled scenario: %v", err)
			}
		}
		det.Flush()
		return sc.Score(alerts), data
	}
	o1, b1 := score(1)
	o16, b16 := score(16)
	if !bytes.Equal(b1, b16) {
		t.Fatal("artifact bytes differ across MaxParallel 1 vs 16")
	}
	if o1 != o16 {
		t.Fatalf("outcomes differ across MaxParallel: %+v vs %+v", o1, o16)
	}
}
