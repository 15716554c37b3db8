package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"csb/internal/cluster"
	"csb/internal/graph"
	"csb/internal/kronecker"
)

// fitGoroutines counts the goroutines running fitAhead's fit. One that has
// signalled its end may not have exited yet, so a caller expecting none
// yields until they are gone.
func fitGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("core.fitAhead.func1("))
}

func assertNoFitGoroutine(t *testing.T) {
	t.Helper()
	for range 10000 {
		if fitGoroutines() == 0 {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("%d fit goroutines outlived fitAhead", fitGoroutines())
}

// stopAfter is a stop predicate that lets the first k blocks be drawn.
func stopAfter(k int) func() bool {
	calls := 0
	return func() bool {
		calls++
		return calls > k
	}
}

func graphDigest(g *graph.Graph) string {
	sum := sha256.Sum256(g.AppendEdgeList(nil))
	return hex.EncodeToString(sum[:])
}

// TestPGSKDrawAheadIsPlacement pins PGSK's golden digest (the spec of
// TestGoldenGeneratorDigests) wherever the property draws made while
// KronFit runs stop: after no block, at a middle one, at the block holding
// the spec's edge count, past the final edge count, and short enough that
// the fill grows the columns. Generate gives the same bytes with the
// overlap off (MaxParallel 1) and on (MaxParallel 2), the initiator preset
// or fitted.
func TestPGSKDrawAheadIsPlacement(t *testing.T) {
	const size = 8000
	s := traceSeed(t, 25, 400, 42)
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_pgsk.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(golden))
	init, err := (&PGSK{Seed: 42}).FitSeed(s)
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 2} {
		for _, preset := range []bool{false, true} {
			c := cluster.MustNew(cluster.Config{Nodes: 2, CoresPerNode: 2, MaxParallel: par})
			p := &PGSK{Seed: 42, Cluster: c}
			if preset {
				p.Initiator = &init
			}
			g, err := p.Generate(s, size)
			if err != nil {
				t.Fatal(err)
			}
			if got := graphDigest(g); got != want {
				t.Errorf("MaxParallel %d, preset initiator %v: digest %s, want %s", par, preset, got, want)
			}
		}
	}

	never := func() bool { return false }
	cases := []struct {
		name    string
		n       int64
		stop    func() bool
		checkAt func(rows, edges int64) bool
	}{
		{"no block", size, stopAfter(0), func(rows, _ int64) bool { return rows == 0 }},
		{"middle block", size, stopAfter(20), func(rows, edges int64) bool { return rows > 0 && rows < edges }},
		{"spec's last block", size, never, func(rows, _ int64) bool { return rows >= size }},
		{"past the final count", 2 * size, never, func(rows, edges int64) bool { return rows > edges }},
		{"columns grow", size / 2, never, func(rows, edges int64) bool { return rows >= size/2 && rows < edges }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.MustNew(cluster.Config{Nodes: 2, CoresPerNode: 2})
			p := &PGSK{Seed: 42, Cluster: c}
			ahead := drawPropsAhead(c, s.Props, 42^0xab5, tc.n, tc.stop)
			g, err := p.expand(c, s, init, size, 42^0xab5, ahead)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.checkAt(ahead.rows, g.NumEdges()) {
				t.Fatalf("drew %d rows ahead of %d edges", ahead.rows, g.NumEdges())
			}
			if got := graphDigest(g); got != want {
				t.Fatalf("digest %s, want %s", got, want)
			}
		})
	}
}

// TestFitAheadRecoversPanic: a panicking fit fails the build with an error,
// as a panicking stage does, and its goroutine is gone when fitAhead
// returns.
func TestFitAheadRecoversPanic(t *testing.T) {
	_, _, err := fitAhead(func() (kronecker.Initiator, error) { panic("fit boom") },
		func(stop func() bool) propsAhead {
			// Returns only once stop reports the fit's end.
			for !stop() {
				runtime.Gosched()
			}
			return propsAhead{}
		})
	if err == nil || !strings.Contains(err.Error(), "fit boom") {
		t.Fatalf("err = %v, want the fit's panic", err)
	}
	assertNoFitGoroutine(t)
}

// TestDrawAheadStopsWhenCancelled: a cancelled job stops drawing between
// blocks although the fit is still running, fitAhead still waits for the
// fit and returns its result, and Generate on a cancelled cluster returns the cancellation.
func TestDrawAheadStopsWhenCancelled(t *testing.T) {
	s := traceSeed(t, 15, 200, 6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := cluster.MustNew(cluster.Config{MaxParallel: 2, Context: ctx})
	release := make(chan struct{})
	running := -1
	fitted := kronecker.Initiator{Theta: [4]float64{0.9, 0.5, 0.5, 0.1}}
	init, ahead, err := fitAhead(func() (kronecker.Initiator, error) {
		<-release
		return fitted, nil
	}, func(stop func() bool) propsAhead {
		calls := 0
		a := drawPropsAhead(c, s.Props, 1, 1<<16, func() bool {
			if calls++; calls == 4 {
				cancel()
			}
			return stop()
		})
		// The fit cannot have returned yet: only the cancellation stopped
		// the draws.
		running = fitGoroutines()
		close(release)
		return a
	})
	if err != nil || init != fitted {
		t.Fatalf("fitAhead returned %v, %v before the fit's result", init, err)
	}
	if running != 1 {
		t.Fatalf("%d fit goroutines while the fit was blocked, want 1", running)
	}
	block := drawPropsAhead(cluster.Local(1), s.Props, 1, 1<<16, stopAfter(1)).rows
	if ahead.rows != 3*block {
		t.Fatalf("drew %d rows after cancelling before the fourth block, want 3 blocks of %d", ahead.rows, block)
	}
	assertNoFitGoroutine(t)

	_, err = (&PGSK{Seed: 7, Cluster: c}).Generate(s, 2000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Generate on a cancelled cluster: err = %v, want context.Canceled", err)
	}
	assertNoFitGoroutine(t)
}
