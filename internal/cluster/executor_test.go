package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"csb/internal/stats"
)

// fakeExecutor runs payloads through fn, like a worker would, optionally
// failing the first call per task to exercise the retry path.
type fakeExecutor struct {
	fn       func(kind string, payload []byte) ([]byte, error)
	calls    atomic.Int64
	declined atomic.Int64
	failer   func(att AttemptInfo) error // non-nil error fails the attempt
}

func (f *fakeExecutor) ExecRemote(ctx context.Context, stage StageInfo, att AttemptInfo, kind string, payload func() []byte) ([]byte, error) {
	f.calls.Add(1)
	if f.failer != nil {
		if err := f.failer(att); err != nil {
			if errors.Is(err, ErrNoRemote) {
				f.declined.Add(1)
			}
			return nil, err
		}
	}
	return f.fn(kind, payload())
}

func encodeInts(xs []int) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.BigEndian.PutUint64(b[8*i:], uint64(x))
	}
	return b
}

func decodeInts(b []byte) ([]int, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("ragged int payload (%d bytes)", len(b))
	}
	out := make([]int, len(b)/8)
	for i := range out {
		out[i] = int(binary.BigEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// doubler is the "worker side" of the test kind: decode, double, encode.
func doubler(kind string, payload []byte) ([]byte, error) {
	xs, err := decodeInts(payload)
	if err != nil {
		return nil, err
	}
	for i := range xs {
		xs[i] *= 2
	}
	return encodeInts(xs), nil
}

func remoteDoubled(c *Cluster, n int) *Dataset[int] {
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	ds := Parallelize(c, in, 8)
	return MapPartitionsRemotable(ds, "test.double",
		func(part int, xs []int) []int {
			out := make([]int, len(xs))
			for i, x := range xs {
				out[i] = 2 * x
			}
			return out
		},
		func(part int, xs []int) []byte { return encodeInts(xs) },
		decodeInts)
}

func wantDoubled(n int) []int {
	want := make([]int, n)
	for i := range want {
		want[i] = 2 * i
	}
	return want
}

func checkInts(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestExecutorRunsRemotableStage(t *testing.T) {
	ex := &fakeExecutor{fn: doubler}
	c := MustNew(Config{Nodes: 1, CoresPerNode: 4, Executor: ex})
	got := Collect(remoteDoubled(c, 100))
	checkInts(t, got, wantDoubled(100))
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if ex.calls.Load() == 0 {
		t.Fatal("executor was never called")
	}
	if rt := c.Metrics().RemoteTasks; rt != 8 {
		t.Fatalf("RemoteTasks = %d, want 8", rt)
	}
}

func TestExecutorDeclineFallsBackLocally(t *testing.T) {
	ex := &fakeExecutor{
		fn:     doubler,
		failer: func(att AttemptInfo) error { return ErrNoRemote },
	}
	c := MustNew(Config{Nodes: 1, CoresPerNode: 4, Executor: ex})
	got := Collect(remoteDoubled(c, 100))
	checkInts(t, got, wantDoubled(100))
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if rt := c.Metrics().RemoteTasks; rt != 0 {
		t.Fatalf("RemoteTasks = %d, want 0 (all declined)", rt)
	}
	// Declining must not burn the retry budget: zero retries recorded.
	if r := c.Metrics().TaskRetries; r != 0 {
		t.Fatalf("TaskRetries = %d, want 0", r)
	}
}

func TestExecutorErrorConsumesRetryThenRecovers(t *testing.T) {
	// Fail every first attempt like a mid-stage worker loss; the engine's
	// retry budget must re-dispatch and the output must be unchanged.
	ex := &fakeExecutor{
		fn: doubler,
		failer: func(att AttemptInfo) error {
			if att.Attempt == 0 {
				return errors.New("worker lost")
			}
			return nil
		},
	}
	c := MustNew(Config{Nodes: 1, CoresPerNode: 4, Executor: ex})
	got := Collect(remoteDoubled(c, 100))
	checkInts(t, got, wantDoubled(100))
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.TaskRetries == 0 {
		t.Fatal("expected retries after executor failures")
	}
	if m.RemoteTasks != 8 {
		t.Fatalf("RemoteTasks = %d, want 8 (every task recovered remotely)", m.RemoteTasks)
	}
}

func TestExecutorDoesNotChangeBytes(t *testing.T) {
	// The determinism contract: local, remote and flaky-remote execution all
	// commit identical values in identical order.
	local := Collect(remoteDoubled(MustNew(Config{Nodes: 1, CoresPerNode: 4}), 500))
	remote := Collect(remoteDoubled(MustNew(Config{Nodes: 1, CoresPerNode: 4, Executor: &fakeExecutor{fn: doubler}}), 500))
	flaky := Collect(remoteDoubled(MustNew(Config{Nodes: 1, CoresPerNode: 4, Executor: &fakeExecutor{
		fn: doubler,
		failer: func(att AttemptInfo) error {
			if att.Attempt == 0 && att.Task%3 == 0 {
				return errors.New("worker lost")
			}
			if att.Task%5 == 0 {
				return ErrNoRemote
			}
			return nil
		},
	}}), 500))
	checkInts(t, remote, local)
	checkInts(t, flaky, local)
}

// TestGenerateRemotableLocalMatchesLoopback pins the one generate body: with
// no executor every partition runs the local closure; with a loopback
// executor every partition is rebuilt from its payload. Same elements.
func TestGenerateRemotableLocalMatchesLoopback(t *testing.T) {
	// Payload carries (seed, stream, count); the "worker" re-derives the
	// partition RNG exactly like the local closure's task does.
	runKind := func(kind string, payload []byte) ([]byte, error) {
		if len(payload) != 24 {
			return nil, fmt.Errorf("bad gen payload (%d bytes)", len(payload))
		}
		seed := binary.BigEndian.Uint64(payload[0:])
		stream := binary.BigEndian.Uint64(payload[8:])
		count := int64(binary.BigEndian.Uint64(payload[16:]))
		rng := DeriveRNG(seed, stream)
		out := make([]byte, 0, 8*count)
		var buf [8]byte
		for i := int64(0); i < count; i++ {
			binary.BigEndian.PutUint64(buf[:], rng.Uint64())
			out = append(out, buf[:]...)
		}
		return out, nil
	}
	build := func(ex TaskExecutor) []uint64 {
		c := MustNew(Config{Nodes: 1, CoresPerNode: 4, Executor: ex})
		ds := GenerateRemotable(c, 1000, 8, 42, "test.gen",
			func(rng *stats.RNG, emit func(uint64), count int64) {
				for i := int64(0); i < count; i++ {
					emit(rng.Uint64())
				}
			},
			func(part int, seed uint64, count int64) []byte {
				b := make([]byte, 24)
				binary.BigEndian.PutUint64(b[0:], seed)
				binary.BigEndian.PutUint64(b[8:], uint64(part))
				binary.BigEndian.PutUint64(b[16:], uint64(count))
				return b
			},
			func(result []byte) ([]uint64, error) {
				if len(result)%8 != 0 {
					return nil, fmt.Errorf("ragged result")
				}
				out := make([]uint64, len(result)/8)
				for i := range out {
					out[i] = binary.BigEndian.Uint64(result[8*i:])
				}
				return out, nil
			})
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		return Collect(ds)
	}
	local := build(nil)
	loopback := &fakeExecutor{fn: runKind}
	remote := build(loopback)
	if loopback.calls.Load() != 8 {
		t.Fatalf("loopback executor ran %d partitions, want 8", loopback.calls.Load())
	}
	if len(local) != 1000 || len(remote) != 1000 {
		t.Fatalf("lengths %d/%d, want 1000", len(local), len(remote))
	}
	for i := range local {
		if local[i] != remote[i] {
			t.Fatalf("value %d differs: %d vs %d", i, local[i], remote[i])
		}
	}
}
