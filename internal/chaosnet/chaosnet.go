// Package chaosnet is a deterministic wire-level fault injector: it wraps
// net.Conn / net.Listener with seeded latency, jitter, bandwidth caps,
// slow-drip writes, byte corruption, mid-stream connection resets and silent
// partitions. It is the network counterpart of the engine's FaultPlan
// (internal/cluster): the in-process plan panics tasks, this one mangles the
// wires the CSBD1 and CSBS1 protocols run over, so the retry, reconnect,
// heartbeat-deadline and checksum machinery can be proven against hostile
// networks instead of only in-process failures.
//
// Determinism: every wrapped connection draws its fault schedule from a
// SplitMix64 stream keyed on (Config.Seed, connection index, direction), so
// a fixed seed produces the same per-connection fault decisions run after
// run. What stays deterministic under chaos is the contract the tests pin:
// committed artifact and stream bytes — corruption is surfaced by the wire
// layers' checksums as typed errors that re-enter the retry/reconnect
// budget, never as silent data loss.
package chaosnet

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedReset tags connection errors chaosnet caused on purpose, so
// tests can tell an injected reset from a real network failure.
var ErrInjectedReset = errors.New("chaosnet: injected connection reset")

// Config parameterizes a fault injector. The zero value injects nothing.
type Config struct {
	// Seed keys every connection's deterministic fault schedule.
	Seed uint64
	// Latency is a fixed delay added to every read and write.
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) delay on top of Latency.
	Jitter time.Duration
	// BandwidthBPS caps write throughput in bytes/second (0 = unlimited).
	BandwidthBPS int64
	// Drip, when positive, splits writes into chunks of at most Drip bytes,
	// exercising partial-frame handling in the peer's reader.
	Drip int
	// CorruptRate is the per-operation probability of flipping one bit of
	// the data in flight.
	CorruptRate float64
	// ResetRate is the per-operation probability of killing the connection
	// mid-stream (a write delivers a prefix first; peers see ECONNRESET/EOF).
	ResetRate float64
	// PartitionRate is the per-operation probability of silently
	// blackholing the connection: subsequent writes claim success but
	// deliver nothing and reads never return data, so only deadline-based
	// liveness (heartbeats, idle timeouts) can detect it.
	PartitionRate float64
	// GraceOps exempts each direction's first N operations from the
	// destructive faults (corrupt/reset/partition), letting handshakes
	// usually complete so runs make forward progress at high fault rates.
	// Latency and bandwidth shaping always apply.
	GraceOps int
}

// Stats counts the faults a Faults injector has delivered.
type Stats struct {
	Conns      int64
	Corrupted  int64
	Resets     int64
	Partitions int64
	DelayedOps int64
}

// Faults wraps connections and listeners with cfg's fault model. One Faults
// hands out deterministic per-connection schedules; create with New.
type Faults struct {
	cfg  Config
	next atomic.Uint64

	conns      atomic.Int64
	corrupted  atomic.Int64
	resets     atomic.Int64
	partitions atomic.Int64
	delayed    atomic.Int64
}

// New validates cfg and returns a Faults injector.
func New(cfg Config) (*Faults, error) {
	for _, r := range []struct {
		name string
		v    float64
	}{{"corrupt", cfg.CorruptRate}, {"reset", cfg.ResetRate}, {"partition", cfg.PartitionRate}} {
		if !(r.v >= 0 && r.v <= 1) { // written so that NaN fails it
			return nil, fmt.Errorf("chaosnet: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if cfg.Latency < 0 || cfg.Jitter < 0 || cfg.BandwidthBPS < 0 || cfg.Drip < 0 {
		return nil, errors.New("chaosnet: negative shaping parameter")
	}
	if cfg.GraceOps < 0 {
		return nil, fmt.Errorf("chaosnet: grace %d is negative", cfg.GraceOps)
	}
	return &Faults{cfg: cfg}, nil
}

// MustNew is New for configs known valid at compile time.
func MustNew(cfg Config) *Faults {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Stats snapshots the injected-fault counters.
func (f *Faults) Stats() Stats {
	return Stats{
		Conns:      f.conns.Load(),
		Corrupted:  f.corrupted.Load(),
		Resets:     f.resets.Load(),
		Partitions: f.partitions.Load(),
		DelayedOps: f.delayed.Load(),
	}
}

// Wrap returns conn with this injector's fault model applied to both
// directions. Each call assigns the next deterministic schedule.
func (f *Faults) Wrap(c net.Conn) net.Conn {
	id := f.next.Add(1)
	f.conns.Add(1)
	return &conn{
		Conn: c,
		f:    f,
		rd:   side{rng: mix64(f.cfg.Seed ^ mix64(id))},
		wr:   side{rng: mix64(f.cfg.Seed ^ mix64(id) ^ 0x5752)}, // "WR"
	}
}

// Listen wraps ln so every accepted connection is fault-injected.
func (f *Faults) Listen(ln net.Listener) net.Listener {
	return &listener{Listener: ln, f: f}
}

type listener struct {
	net.Listener
	f *Faults
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.f.Wrap(c), nil
}

// mix64 is the SplitMix64 finalizer, the repo's standard bit mixer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// side is one direction's deterministic schedule state.
type side struct {
	mu  sync.Mutex
	rng uint64
	ops uint64
}

// draw advances the stream and returns a uniform float64 in [0, 1).
func (s *side) draw() float64 {
	s.rng = mix64(s.rng)
	return float64(s.rng>>11) / (1 << 53)
}

// conn applies the fault model to one connection. Partition state is shared
// by both directions: a partitioned link is silent both ways.
type conn struct {
	net.Conn
	f  *Faults
	rd side
	wr side

	partitioned atomic.Bool
	closeOnce   sync.Once
}

// plan is one operation's drawn fault decisions.
type plan struct {
	delay     time.Duration
	corruptAt int  // byte index to bit-flip, -1 = none
	reset     bool // kill the connection during this op
	resetAt   int  // bytes delivered before the reset (writes)
	partition bool // blackhole from this op on
}

// nextPlan draws one operation's schedule for n bytes in flight.
func (c *conn) nextPlan(s *side, n int) plan {
	cfg := &c.f.cfg
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	p := plan{corruptAt: -1}
	if cfg.Latency > 0 || cfg.Jitter > 0 {
		p.delay = cfg.Latency + time.Duration(s.draw()*float64(cfg.Jitter))
	}
	if s.ops <= uint64(cfg.GraceOps) {
		return p
	}
	if cfg.CorruptRate > 0 && s.draw() < cfg.CorruptRate && n > 0 {
		p.corruptAt = int(s.draw() * float64(n))
	}
	if cfg.ResetRate > 0 && s.draw() < cfg.ResetRate {
		p.reset = true
		p.resetAt = int(s.draw() * float64(n))
	}
	if cfg.PartitionRate > 0 && s.draw() < cfg.PartitionRate {
		p.partition = true
	}
	return p
}

func (c *conn) sleep(d time.Duration) {
	if d > 0 {
		c.f.delayed.Add(1)
		time.Sleep(d)
	}
}

// Write applies the write-side schedule: delay, partition, reset-with-prefix,
// bit corruption, then bandwidth-paced dripped delivery.
func (c *conn) Write(p []byte) (int, error) {
	if c.partitioned.Load() {
		// Blackholed: the caller believes the write succeeded; nothing is
		// delivered. The tiny sleep keeps hot retry loops from spinning.
		time.Sleep(time.Millisecond)
		return len(p), nil
	}
	pl := c.nextPlan(&c.wr, len(p))
	c.sleep(pl.delay)
	if pl.partition {
		c.f.partitions.Add(1)
		c.partitioned.Store(true)
		return len(p), nil
	}
	if pl.reset {
		c.f.resets.Add(1)
		if pl.resetAt > 0 {
			c.deliver(p[:pl.resetAt])
		}
		c.Conn.Close()
		return pl.resetAt, fmt.Errorf("chaosnet: write: %w", ErrInjectedReset)
	}
	if pl.corruptAt >= 0 && pl.corruptAt < len(p) {
		c.f.corrupted.Add(1)
		mangled := append([]byte(nil), p...)
		mangled[pl.corruptAt] ^= 1 << (c.wr.rngBit() & 7)
		p = mangled
	}
	return c.deliver(p)
}

// rngBit draws one byte of randomness for bit selection.
func (s *side) rngBit() byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rng = mix64(s.rng)
	return byte(s.rng)
}

// deliver writes p through the bandwidth cap and drip chunking.
func (c *conn) deliver(p []byte) (int, error) {
	cfg := &c.f.cfg
	chunk := len(p)
	if cfg.Drip > 0 && cfg.Drip < chunk {
		chunk = cfg.Drip
	}
	written := 0
	for written < len(p) {
		end := written + chunk
		if end > len(p) {
			end = len(p)
		}
		if cfg.BandwidthBPS > 0 {
			c.sleep(time.Duration(int64(end-written) * int64(time.Second) / cfg.BandwidthBPS))
		}
		n, err := c.Conn.Write(p[written:end])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Read applies the read-side schedule. A partitioned connection consumes and
// discards incoming bytes so the only way out is the caller's read deadline
// — exactly how a real partition presents to deadline-based liveness.
func (c *conn) Read(p []byte) (int, error) {
	for c.partitioned.Load() {
		var sink [4096]byte
		if _, err := c.Conn.Read(sink[:]); err != nil {
			return 0, err
		}
	}
	pl := c.nextPlan(&c.rd, len(p))
	c.sleep(pl.delay)
	if pl.partition {
		c.f.partitions.Add(1)
		c.partitioned.Store(true)
		return c.Read(p)
	}
	if pl.reset {
		c.f.resets.Add(1)
		c.Conn.Close()
		return 0, fmt.Errorf("chaosnet: read: %w", ErrInjectedReset)
	}
	n, err := c.Conn.Read(p)
	if n > 0 && pl.corruptAt >= 0 && pl.corruptAt < n {
		c.f.corrupted.Add(1)
		p[pl.corruptAt] ^= 1 << (c.rd.rngBit() & 7)
	}
	return n, err
}

func (c *conn) Close() error {
	var err error
	c.closeOnce.Do(func() { err = c.Conn.Close() })
	return err
}

// ParseSpec builds a Config from a comma-separated key=value spec, the form
// the -chaos-net flags accept:
//
//	latency=2ms,jitter=5ms,corrupt=0.01,reset=0.01,partition=0.005,
//	bps=1048576,drip=512,seed=7,grace=4
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, errors.New("chaosnet: empty spec")
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("chaosnet: bad spec entry %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(v, 10, 64)
		case "latency":
			cfg.Latency, err = time.ParseDuration(v)
		case "jitter":
			cfg.Jitter, err = time.ParseDuration(v)
		case "bps":
			cfg.BandwidthBPS, err = strconv.ParseInt(v, 10, 64)
		case "drip":
			cfg.Drip, err = strconv.Atoi(v)
		case "corrupt":
			cfg.CorruptRate, err = strconv.ParseFloat(v, 64)
		case "reset":
			cfg.ResetRate, err = strconv.ParseFloat(v, 64)
		case "partition":
			cfg.PartitionRate, err = strconv.ParseFloat(v, 64)
		case "grace":
			cfg.GraceOps, err = strconv.Atoi(v)
		default:
			return cfg, fmt.Errorf("chaosnet: unknown spec key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("chaosnet: bad %s value %q: %w", k, v, err)
		}
	}
	if _, err := New(cfg); err != nil {
		return cfg, err
	}
	return cfg, nil
}
