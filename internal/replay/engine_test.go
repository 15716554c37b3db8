package replay

import (
	"math"
	"testing"
	"time"

	"csb/internal/netflow"
)

// fakeClock advances only through sleep, making pacing assertions exact.
// Every sleep lasts overshoot longer than asked, as a real one may.
type fakeClock struct {
	t         time.Time
	slept     time.Duration
	overshoot time.Duration
}

func (c *fakeClock) clock() clock {
	return clock{
		now: func() time.Time { return c.t },
		sleep: func(d time.Duration) {
			if d > 0 {
				d += c.overshoot
				c.t = c.t.Add(d)
				c.slept += d
			}
		},
	}
}

func TestParseLagPolicy(t *testing.T) {
	for s, want := range map[string]LagPolicy{
		"block": PolicyBlock, "": PolicyBlock,
		"drop": PolicyDrop, "disconnect": PolicyDisconnect,
	} {
		got, err := ParseLagPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseLagPolicy(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseLagPolicy("nope"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}
	if err := o.normalize(); err != nil {
		t.Fatal(err)
	}
	if o.QueueLen != DefaultQueueLen || o.Burst != DefaultBurst {
		t.Fatalf("defaults not applied: %+v", o)
	}
	for _, bad := range []Options{{Speed: -1}, {Rate: -5}} {
		b := bad
		if err := b.normalize(); err == nil {
			t.Fatalf("%+v accepted", bad)
		}
	}
}

// TestPacerTimeWarp checks the time-warp schedule: a dataset spanning 10
// virtual seconds replays in 10s at speed 1, 100ms at speed 100, and with no
// sleeps at all at speed 0.
func TestPacerTimeWarp(t *testing.T) {
	starts := []int64{0, 2_000_000, 5_000_000, 10_000_000} // micros
	for _, tc := range []struct {
		speed float64
		want  time.Duration
	}{
		{1, 10 * time.Second},
		{100, 100 * time.Millisecond},
		{0, 0},
	} {
		fc := &fakeClock{t: time.Unix(0, 0)}
		o := Options{Speed: tc.speed}
		if err := o.normalize(); err != nil {
			t.Fatal(err)
		}
		p := newPacer(fc.clock(), o)
		p.start(starts[0])
		for _, s := range starts {
			p.wait(s)
		}
		if fc.slept != tc.want {
			t.Fatalf("speed %v: slept %v, want %v", tc.speed, fc.slept, tc.want)
		}
	}
}

// TestPacerTokenBucket checks the rate cap: 100 flows at 1000 flows/sec with
// a burst of 10 must take about (100-10)/1000 s of sleeping.
func TestPacerTokenBucket(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	o := Options{Rate: 1000, Burst: 10}
	if err := o.normalize(); err != nil {
		t.Fatal(err)
	}
	p := newPacer(fc.clock(), o)
	p.start(0)
	for i := 0; i < 100; i++ {
		p.wait(0) // timeline-free dataset: pacing is the bucket alone
	}
	want := 90 * time.Millisecond
	if fc.slept < want-time.Millisecond || fc.slept > want+5*time.Millisecond {
		t.Fatalf("slept %v, want ~%v", fc.slept, want)
	}
}

// TestPacerKeepsRateWhenSleepsOvershoot: sleeps that each overshoot by
// 400 µs — 16 tokens' worth at 40,000 flows/s, the whole burst — must not cost
// the rate cap its rate. The emitter's span loop releases 50,000 flows at
// 40,000 ± 1% flows/s, and no window of Δt holds more than
// max(Burst, 1 + Rate·δ) + Rate·Δt flows, the bound DESIGN.md states for a
// sleep that overshoots by δ.
func TestPacerKeepsRateWhenSleepsOvershoot(t *testing.T) {
	const rate, burst, overshoot = 40_000, 16, 400 * time.Microsecond
	flows := make([]netflow.Flow, 50_000) // timeline-free: the bucket alone paces
	fc := &fakeClock{t: time.Unix(0, 0), overshoot: overshoot}
	_, at := spanScheduleOn(t, fc, flows, Options{Rate: rate, Burst: burst})
	elapsed := at[len(at)-1].Sub(at[0]).Seconds()
	if got := float64(len(flows)-burst) / elapsed; got < 0.99*rate || got > 1.01*rate {
		t.Fatalf("released %d flows in %.3fs past the initial burst: %.0f flows/s, want %d ± 1%%", len(flows), elapsed, got, rate)
	}
	// n flows i..j fit the bound when (j - Rate·t_j) - (i - 1 - Rate·t_i) is
	// at most the window allowance: one pass with the running minimum.
	allow := max(burst, 1+rate*overshoot.Seconds()) + 1e-6
	lowest := math.Inf(1)
	for j := range at {
		x := float64(j) - rate*at[j].Sub(at[0]).Seconds()
		lowest = min(lowest, x-1)
		if x-lowest > allow {
			t.Fatalf("a window ending at flow %d holds %.2f flows past Rate·Δt, the bound allows %.0f", j, x-lowest, allow)
		}
	}
}

// TestPacerComposes checks that the rate cap still binds when the time-warp
// schedule would release flows faster.
func TestPacerComposes(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	o := Options{Speed: 1000, Rate: 100, Burst: 1}
	if err := o.normalize(); err != nil {
		t.Fatal(err)
	}
	p := newPacer(fc.clock(), o)
	p.start(0)
	for i := int64(0); i < 50; i++ {
		p.wait(i * 1000) // 1ms apart in dataset time -> 1µs at speed 1000
	}
	// 49 refills at 100/s dominate: ~490ms.
	if fc.slept < 400*time.Millisecond {
		t.Fatalf("slept only %v; rate cap did not bind", fc.slept)
	}
}
