// Command csbreplay turns csb datasets into live traffic and consumes it
// back: the CLI for internal/replay. It serves a dataset to any number of
// TCP subscribers over the CSBS1 framed wire format, follows a csbd job and
// replays its artifact, or consumes a stream — optionally through the
// on-line anomaly detector, printing alerts as windows close.
//
// -artifact takes any replayable artifact — a flow CSV, a CSBG graph whose
// flow projection replays, or a CSBF flow artifact — and reads its format
// from its leading bytes.
//
// Usage:
//
//	csbreplay -artifact flows.csv -addr :9000 -speed 10 -policy drop
//	csbreplay -artifact syn.csbg -addr :9000 -rate 50000
//	csbreplay -artifact flows.csbf -addr :9000 -wait 4
//	csbreplay -follow j1 -daemon http://localhost:8080 -addr :9000
//	csbreplay -consume localhost:9000 -ids -window-sec 60
//	csbreplay -artifact flows.csv -flows-out flows.csbf
//	csbreplay -scenario spec.json -flows-out labeled.csbf -addr :9000
//	csbreplay -consume localhost:9000 -ids -labels labeled.csbf
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"csb/internal/attack"
	"csb/internal/cluster"
	"csb/internal/ids"
	"csb/internal/netflow"
	"csb/internal/replay"
	"csb/internal/scenario"
	"csb/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "csbreplay:", err)
		os.Exit(1)
	}
}

// run executes the tool; factored from main for testing. In serve mode,
// ready (when non-nil) receives the bound listen address, and closing stop
// aborts the run.
func run(args []string, stdout io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("csbreplay", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		artifactIn = fs.String("artifact", "", "artifact to replay: flow CSV, CSBG graph (its flow projection) or CSBF flows, told apart by their leading bytes")
		scenIn     = fs.String("scenario", "", "labeled-scenario spec (JSON) to compile and replay")
		follow     = fs.String("follow", "", "csbd job id to follow and replay")
		daemon     = fs.String("daemon", "http://localhost:8080", "csbd base URL for -follow")
		addr       = fs.String("addr", "", "listen address for serving the stream")
		speed      = fs.Float64("speed", 0, "time-warp factor (1 = real time, 0 = as fast as possible)")
		rate       = fs.Float64("rate", 0, "emission cap in flows/sec (0 = unlimited)")
		burst      = fs.Int("burst", 0, "token-bucket burst for -rate (0 = default)")
		policyStr  = fs.String("policy", "block", "lag policy: block, drop or disconnect")
		queueLen   = fs.Int("queue", 0, "per-subscriber queue bound in spans: runs of flows released at one instant, several of which one frame may carry (0 = default)")
		batchLen   = fs.Int("batch", 0, "max flows per stream frame (0 = default, 1 = v1 single-flow frames)")
		waitSubs   = fs.Int("wait", 0, "hold the clock until this many subscribers connect")
		waitFor    = fs.Duration("wait-timeout", 60*time.Second, "bound on -wait (start anyway after)")
		flowsOut   = fs.String("flows-out", "", "write the loaded flows as a CSBF artifact")
		consume    = fs.String("consume", "", "address of a CSBS1 stream to consume")
		runIDS     = fs.Bool("ids", false, "pipe consumed flows through the streaming detector")
		windowSec  = fs.Int64("window-sec", 60, "streaming-detector window length in seconds")
		horizonSec = fs.Int64("horizon-sec", 0, "streaming-detector reorder horizon in seconds")
		rawOut     = fs.String("raw-out", "", "write consumed frame payloads to this file (byte-identity checks)")
		labelsIn   = fs.String("labels", "", "labeled artifact (CSBF1+CSBL1) holding the consumed stream's ground truth; with -ids, alerts are scored against it")
		dialWait   = fs.Duration("dial-timeout", 10*time.Second, "bound on connecting to the -consume address")
		idleWait   = fs.Duration("idle-timeout", 30*time.Second, "per-read deadline while consuming: a stream silent this long is torn down (0 disables)")
		reconnect  = fs.Int("reconnect", 0, "with -consume, redial a torn stream up to this many times, resuming after the last delivered sequence (0 = fail on first tear)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *consume != "" {
		if *labelsIn != "" && !*runIDS {
			return fmt.Errorf("-labels requires -ids (there are no alerts to score otherwise)")
		}
		return consumeStream(*consume, *dialWait, *idleWait, *reconnect, *runIDS, *windowSec, *horizonSec, *rawOut, *labelsIn, stdout)
	}

	policy, err := replay.ParseLagPolicy(*policyStr)
	if err != nil {
		return err
	}
	src, err := loadSource(*artifactIn, *scenIn, *follow, *daemon)
	if err != nil {
		return err
	}

	if *flowsOut != "" {
		// Scenario sources write the full labeled artifact they compiled to
		// (flow section + label section), byte-identical to `csbgen -scenario`
		// and a csbd scenario job on the same spec; other sources are decoded
		// into a plain CSBF1.
		out := src.data
		if !src.labeled {
			flows, err := serve.ReplayFlows(src.data)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := replay.WriteFlowFile(&buf, flows); err != nil {
				return err
			}
			out = buf.Bytes()
		}
		if err := os.WriteFile(*flowsOut, out, 0o666); err != nil {
			return err
		}
		records, err := replay.FlowSection(out)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d flows)\n", *flowsOut, len(records)/replay.FlowRecordLen)
		if *addr == "" {
			return nil
		}
	}
	if *addr == "" {
		return fmt.Errorf("nothing to do: pass -addr to serve, -consume to subscribe, or -flows-out to convert")
	}

	srv, err := serve.NewReplayServer(src.data, replay.Options{
		Speed: *speed, Rate: *rate, Burst: *burst,
		Policy: policy, QueueLen: *queueLen, BatchLen: *batchLen, ArtifactSHA: src.sha,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	loaded := srv.Stats().Flows
	fmt.Fprintf(stdout, "loaded %d flows\n", loaded)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "csbreplay serving %d flows on %s (speed=%v rate=%v policy=%s)\n",
		loaded, ln.Addr(), *speed, *rate, policy)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	go srv.Serve(ln)
	if *waitSubs > 0 {
		if err := srv.AwaitSubscribers(*waitSubs, *waitFor); err != nil {
			fmt.Fprintf(stdout, "%v; starting anyway\n", err)
		}
	}
	if err := srv.Start(); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { srv.Wait(); close(done) }()
	select {
	case <-done:
		// Let caught-up subscribers read their end frames before the deferred
		// Close tears the connections down.
		if err := srv.Drain(30 * time.Second); err != nil {
			fmt.Fprintf(stdout, "%v\n", err)
		}
	case <-stop:
		srv.Close()
		<-done
	}
	st := srv.Stats()
	fmt.Fprintf(stdout, "replay done: %d/%d flows emitted in %v (%.0f flows/sec), %d subscribers, %d dropped, %d disconnected\n",
		st.Emitted, st.Flows, st.Elapsed.Round(time.Millisecond), st.FlowsPerSec,
		st.SubscribersTotal, st.Dropped, st.Disconnected)
	return nil
}

// source is the dataset the flags named: artifact bytes in one of the
// replayable formats (serve.NewReplayServer).
type source struct {
	data    []byte
	sha     [32]byte // SHA-256 stamped into the stream header
	labeled bool     // a compiled scenario: data carries the CSBL1 ground truth
}

// loadSource resolves the one dataset source the flags name.
func loadSource(artifactIn, scenIn, follow, daemon string) (source, error) {
	sources := 0
	for _, s := range []string{artifactIn, scenIn, follow} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return source{}, fmt.Errorf("exactly one of -artifact, -scenario or -follow is required")
	}
	if follow != "" {
		return followJob(daemon, follow)
	}
	if scenIn != "" {
		f, err := os.Open(scenIn)
		if err != nil {
			return source{}, err
		}
		sp, err := scenario.Parse(f)
		f.Close()
		if err != nil {
			return source{}, err
		}
		// The same job spec, bytes and content address a csbd scenario job
		// has, so subscribers can tie the stream back to the cached artifact.
		job := serve.Spec{Scenario: sp}
		if err := job.Normalize(); err != nil {
			return source{}, err
		}
		data, err := serve.BuildArtifact(context.Background(), job, nil)
		if err != nil {
			return source{}, err
		}
		return source{data: data, sha: serve.ArtifactSHA(job.ID()), labeled: true}, nil
	}
	data, err := os.ReadFile(artifactIn)
	if err != nil {
		return source{}, err
	}
	return source{data: data, sha: sha256.Sum256(data)}, nil
}

// followJob polls a csbd job to completion and fetches its artifact.
func followJob(daemon, jobID string) (source, error) {
	base := strings.TrimSuffix(daemon, "/")
	var st serve.JobStatus
	for {
		resp, err := http.Get(base + "/v1/jobs/" + jobID)
		if err != nil {
			return source{}, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return source{}, fmt.Errorf("job %s: daemon returned %s", jobID, resp.Status)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return source{}, err
		}
		switch st.State {
		case serve.StateDone:
		case serve.StateQueued, serve.StateRunning:
			time.Sleep(250 * time.Millisecond)
			continue
		default:
			return source{}, fmt.Errorf("job %s is %s: %s", jobID, st.State, st.Error)
		}
		break
	}
	resp, err := http.Get(base + "/v1/artifacts/" + st.ArtifactID)
	if err != nil {
		return source{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return source{}, fmt.Errorf("artifact %s: daemon returned %s", st.ArtifactID, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return source{}, err
	}
	return source{data: data, sha: serve.ArtifactSHA(st.ArtifactID)}, nil
}

// consumeStream subscribes to a CSBS1 stream, optionally running the
// streaming detector over the delivered flows and/or mirroring the raw
// payload bytes to a file. With labelsPath set, the detector's alerts are
// scored against the labeled artifact's ground truth and the
// precision/recall/F1 of the run is printed — the stream-side half of the
// detection-quality benchmark.
// idleReader refreshes the connection's read deadline before every read, so
// the deadline bounds idle gaps between frames rather than total stream
// duration (a long replay stays up as long as frames keep flowing).
type idleReader struct {
	c    net.Conn
	idle time.Duration
}

func (r *idleReader) Read(p []byte) (int, error) {
	if err := r.c.SetReadDeadline(time.Now().Add(r.idle)); err != nil {
		return 0, err
	}
	return r.c.Read(p)
}

func consumeStream(addr string, dialTimeout, idleTimeout time.Duration, reconnect int, runIDS bool, windowSec, horizonSec int64, rawOut, labelsPath string, stdout io.Writer) error {
	// Load the ground truth before dialing: a bad labels file should fail
	// fast, not after the stream has been consumed.
	var truth *attack.Scenario
	if labelsPath != "" {
		data, err := os.ReadFile(labelsPath)
		if err != nil {
			return err
		}
		if truth, err = scenario.DecodeLabeled(data); err != nil {
			return err
		}
	}
	var raw *os.File
	if rawOut != "" {
		var err error
		if raw, err = os.Create(rawOut); err != nil {
			return err
		}
		defer raw.Close()
	}
	var det *ids.StreamDetector
	var alerts []ids.Alert
	if runIDS {
		det = ids.NewStreamDetector(ids.DefaultThresholds(), windowSec*1e6, func(a ids.Alert) {
			alerts = append(alerts, a)
			fmt.Fprintf(stdout, "[alert] %s\n", a)
		})
		if horizonSec > 0 {
			det.SetReorderHorizon(horizonSec * 1e6)
		}
	}

	// Session loop. Each pass dials and consumes until the stream ends or
	// tears; with a reconnect budget, a torn session redials and resumes
	// after the last delivered sequence. A restarted server replays the run
	// from zero, so the resume filter below skips the already-delivered
	// prefix — raw output and detector state see every flow exactly once.
	// A session that delivers new flows refills the budget, so the budget
	// bounds consecutive fruitless attempts, not total stream lifetime.
	// Redials wait on cluster.ReconnectBackoff, keyed on this process so a
	// fleet of consumers torn by the same server restart does not redial in
	// lockstep (a missing hostname still leaves the pid).
	host, _ := os.Hostname()
	consumer := fmt.Sprintf("%s-%d", host, os.Getpid())
	var (
		d          = net.Dialer{Timeout: dialTimeout}
		haveSeq    bool
		lastSeq    uint64 // highest sequence delivered across all sessions
		delivered  uint64
		gaps       uint64
		head, tail uint64   // flows missed before the first session and after the last
		sha        [32]byte // stream identity, pinned by the first header
		shaKnown   bool
		header     replay.Header
		clean      bool
		attempt    int
		consumeErr error
	)
	for {
		// Bounded dial and per-read idle deadline: an unreachable server
		// fails in dialTimeout instead of the kernel's connect timeout, and
		// a server that hangs mid-frame surfaces as a read error instead of
		// wedging the client.
		tcpConn, err := d.Dial("tcp", addr)
		if err != nil {
			if attempt >= reconnect {
				return err
			}
			attempt++
			wait := cluster.ReconnectBackoff.Delay(consumer, attempt)
			fmt.Fprintf(stdout, "dial %s: %v; retrying in %v (attempt %d/%d)\n",
				addr, err, wait.Round(time.Millisecond), attempt, reconnect)
			time.Sleep(wait)
			continue
		}
		var conn io.Reader = tcpConn
		if idleTimeout > 0 {
			conn = &idleReader{c: tcpConn, idle: idleTimeout}
		}
		progressed := false
		st, cerr := replay.Consume(conn, func(seq uint64, f netflow.Flow, payload []byte) error {
			if haveSeq && seq <= lastSeq {
				return nil // re-served prefix after a reconnect; already delivered
			}
			lastSeq, haveSeq = seq, true
			progressed = true
			delivered++
			if raw != nil {
				if _, err := raw.Write(payload); err != nil {
					return err
				}
			}
			if det != nil {
				det.Add(f) // late flows are counted; the stream keeps going
			}
			return nil
		})
		tcpConn.Close()
		gaps += st.Gaps
		tail = st.Tail
		if st.Header != (replay.Header{}) {
			if header == (replay.Header{}) {
				head = st.Head
			}
			header = st.Header
			// The content address must hold across sessions: a reconnect that
			// lands on a different dataset would silently splice two artifacts
			// together. An all-zero SHA means unknown and is not checked.
			if st.Header.ArtifactSHA != ([32]byte{}) {
				if shaKnown && st.Header.ArtifactSHA != sha {
					return fmt.Errorf("stream identity changed across reconnect: artifact %x… != %x…",
						st.Header.ArtifactSHA[:8], sha[:8])
				}
				sha, shaKnown = st.Header.ArtifactSHA, true
			}
		}
		if cerr == nil && st.Clean {
			clean = true
			break
		}
		if progressed {
			attempt = 0
		}
		if attempt >= reconnect {
			consumeErr = cerr
			break
		}
		attempt++
		wait := cluster.ReconnectBackoff.Delay(consumer, attempt)
		fmt.Fprintf(stdout, "stream torn at seq %d (%v); reconnecting in %v (attempt %d/%d)\n",
			lastSeq, cerr, wait.Round(time.Millisecond), attempt, reconnect)
		time.Sleep(wait)
	}
	if det != nil {
		det.Flush()
	}
	fmt.Fprintf(stdout, "consumed %d/%d flows (gaps=%d head=%d tail=%d clean=%v)\n",
		delivered, header.Flows, gaps, head, tail, clean)
	if det != nil {
		fmt.Fprintf(stdout, "ids: %d alerts, %d late flows\n", len(alerts), det.LateFlows())
	}
	if truth != nil {
		o := truth.Score(alerts)
		fmt.Fprintf(stdout, "score: precision=%.3f recall=%.3f f1=%.3f (tp=%d fn=%d fp=%d, %d labels)\n",
			o.Precision(), o.Recall(), o.F1(),
			o.TruePositives, o.FalseNegatives, o.FalsePositives, len(truth.Labels))
	}
	if consumeErr != nil {
		return consumeErr
	}
	if !clean {
		return fmt.Errorf("stream ended without a clean end frame")
	}
	return nil
}
