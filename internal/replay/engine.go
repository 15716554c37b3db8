package replay

import (
	"fmt"
	"time"
)

// LagPolicy decides what happens to a subscriber whose bounded send queue is
// full when the clock says the next flow is due.
type LagPolicy uint8

const (
	// PolicyBlock propagates backpressure to the replay clock: the emitter
	// waits for the slowest subscriber, keeping every stream complete but
	// letting one slow client stall the run (and everyone on it).
	PolicyBlock LagPolicy = iota
	// PolicyDrop skips the frame for the lagging subscriber only, counting
	// the drop; the clock and the other subscribers are unaffected. The
	// receiver sees the loss as a sequence gap.
	PolicyDrop
	// PolicyDisconnect evicts the lagging subscriber outright; the clock
	// and the other subscribers are unaffected.
	PolicyDisconnect
)

// String names the policy as accepted by ParseLagPolicy.
func (p LagPolicy) String() string {
	switch p {
	case PolicyDrop:
		return "drop"
	case PolicyDisconnect:
		return "disconnect"
	default:
		return "block"
	}
}

// ParseLagPolicy parses a policy name: block, drop or disconnect.
func ParseLagPolicy(s string) (LagPolicy, error) {
	switch s {
	case "block", "":
		return PolicyBlock, nil
	case "drop":
		return PolicyDrop, nil
	case "disconnect":
		return PolicyDisconnect, nil
	default:
		return PolicyBlock, fmt.Errorf("replay: unknown lag policy %q (want block, drop or disconnect)", s)
	}
}

// Options parameterizes a replay run.
type Options struct {
	// Speed is the time-warp factor mapping dataset time to wall time:
	// 1.0 replays on the original inter-flow timeline, 100 runs 100x
	// faster, and 0 (the default) emits as fast as possible — pacing then
	// falls entirely to Rate. Negative is rejected.
	Speed float64
	// Rate caps emission at this many flows per second through a token
	// bucket, independent of Speed (0 = unlimited). Useful for datasets
	// without a timeline, e.g. flows projected from a generated property
	// graph, whose start times are all zero.
	Rate float64
	// Burst is the token-bucket depth (0 means DefaultBurst).
	Burst int
	// Policy is the lag policy for slow subscribers.
	Policy LagPolicy
	// QueueLen bounds each subscriber's send queue in spans (0 means
	// DefaultQueueLen). A span is a run of up to BatchLen flows the clock
	// released at one instant, so a paced, caught-up stream queues one flow
	// per element and an unpaced one may lag by QueueLen × BatchLen flows.
	QueueLen int
	// BatchLen caps how many flows one emitter span and one stream frame
	// may carry (0 means DefaultBatchLen, 1 forces v1 single-flow frames).
	// Batching never delays delivery: a span holds only flows the pacer
	// would have released without sleeping, and a frame only the contiguous
	// spans already queued when the writer comes around, so a caught-up
	// live subscriber still sees every flow in its own frame.
	BatchLen int
	// ArtifactSHA is the content address stamped into every stream header.
	ArtifactSHA [32]byte
}

// Defaults for Options.
const (
	DefaultQueueLen = 256
	DefaultBurst    = 64
	DefaultBatchLen = 64
)

func (o *Options) normalize() error {
	if o.Speed < 0 {
		return fmt.Errorf("replay: negative speed %v", o.Speed)
	}
	if o.Rate < 0 {
		return fmt.Errorf("replay: negative rate %v", o.Rate)
	}
	if o.QueueLen <= 0 {
		o.QueueLen = DefaultQueueLen
	}
	if o.Burst <= 0 {
		o.Burst = DefaultBurst
	}
	if o.BatchLen <= 0 {
		o.BatchLen = DefaultBatchLen
	}
	if o.BatchLen > MaxBatchFlows {
		return fmt.Errorf("replay: batch length %d exceeds the wire limit %d", o.BatchLen, MaxBatchFlows)
	}
	return nil
}

// clock abstracts wall time so pacing is testable without real sleeps.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

func realClock() clock {
	return clock{now: time.Now, sleep: time.Sleep}
}

// pacer schedules flow emission: the time-warp schedule against the
// dataset's own timeline, then the token bucket on top. Both delays compose
// (the bucket never lets a burst exceed Rate even when Speed releases many
// flows at once).
type pacer struct {
	clk   clock
	speed float64

	base    int64     // dataset time of the first flow, micros
	started time.Time // wall time of run start

	// Token bucket (inactive when rate == 0).
	rate   float64
	tokens float64
	burst  float64
	last   time.Time
}

func newPacer(clk clock, o Options) *pacer {
	return &pacer{
		clk: clk, speed: o.Speed,
		rate: o.Rate, burst: float64(o.Burst), tokens: float64(o.Burst),
	}
}

// start pins the wall-clock origin of the run to the first flow's timestamp.
func (p *pacer) start(baseMicros int64) {
	p.base = baseMicros
	p.started = p.clk.now()
	p.last = p.started
}

// dueAt maps a dataset timestamp onto the run's wall clock (speed > 0 only).
func (p *pacer) dueAt(startMicros int64) time.Time {
	elapsed := float64(startMicros-p.base) / p.speed // dataset µs -> wall µs
	return p.started.Add(time.Duration(elapsed) * time.Microsecond)
}

// wait blocks until the flow with dataset timestamp startMicros is due.
func (p *pacer) wait(startMicros int64) {
	if p.speed > 0 {
		if d := p.dueAt(startMicros).Sub(p.clk.now()); d > 0 {
			p.clk.sleep(d)
		}
	}
	if p.rate > 0 {
		p.take()
	}
}

// due is wait without the sleeping: it reports whether wait would release the
// flow at wall time now without blocking — its time-warp due time has passed
// and the bucket holds a whole token — and consumes the token when it does.
// The emitter extends a span with it, so a span never holds a flow the
// per-flow schedule would still be sleeping on.
func (p *pacer) due(startMicros int64, now time.Time) bool {
	if p.speed > 0 && p.dueAt(startMicros).After(now) {
		return false
	}
	if p.rate > 0 {
		p.refill(now)
		if p.tokens < 1 {
			return false
		}
		p.tokens--
	}
	return true
}

// refill credits the tokens accrued since the last refill, up to the burst.
func (p *pacer) refill(now time.Time) {
	p.tokens += now.Sub(p.last).Seconds() * p.rate
	p.last = now
	if p.tokens > p.burst {
		p.tokens = p.burst
	}
}

// take consumes one token, sleeping for the refill when the bucket is empty.
func (p *pacer) take() {
	p.refill(p.clk.now())
	if p.tokens < 1 {
		need := (1 - p.tokens) / p.rate // seconds until one token refills
		p.clk.sleep(time.Duration(need * float64(time.Second)))
		p.refill(p.clk.now())
	}
	p.tokens--
}
