package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Nodes: -1, CoresPerNode: 1},
		{Nodes: 1, CoresPerNode: -1},
		{Nodes: 1, CoresPerNode: 1, DefaultPartitions: -2},
		{Nodes: 1, CoresPerNode: 1, MaxParallel: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestNewDefaults(t *testing.T) {
	c, err := New(Config{Nodes: 3, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	if cfg.DefaultPartitions != 24 {
		t.Errorf("DefaultPartitions = %d, want 2x12", cfg.DefaultPartitions)
	}
	if cfg.MaxParallel <= 0 {
		t.Errorf("MaxParallel = %d", cfg.MaxParallel)
	}
	if c.VirtualCores() != 12 {
		t.Errorf("VirtualCores = %d, want 12", c.VirtualCores())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew accepted bad config")
		}
	}()
	MustNew(Config{Nodes: -1})
}

// TestDefaultShapeIgnoresHost pins the one default for an unset shape: 1 x 1
// placement (2 partitions) whatever GOMAXPROCS says; only MaxParallel follows
// the hardware.
func TestDefaultShapeIgnoresHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for name, c := range map[string]*Cluster{"New": MustNew(Config{}), "Local": Local(0)} {
			cfg := c.Config()
			if cfg.Nodes != 1 || cfg.CoresPerNode != 1 || cfg.DefaultPartitions != 2 {
				t.Errorf("GOMAXPROCS %d, %s: placement %d x %d, %d partitions; want 1 x 1, 2",
					procs, name, cfg.Nodes, cfg.CoresPerNode, cfg.DefaultPartitions)
			}
			if cfg.MaxParallel != procs {
				t.Errorf("GOMAXPROCS %d, %s: MaxParallel = %d", procs, name, cfg.MaxParallel)
			}
		}
	}
	if cfg := Local(3).Config(); cfg.CoresPerNode != 3 || cfg.MaxParallel != 3 {
		t.Errorf("Local(3) = %d cores, MaxParallel %d; an explicit shape must be kept", cfg.CoresPerNode, cfg.MaxParallel)
	}
}

func TestLocal(t *testing.T) {
	c := Local(2)
	if c.Config().Nodes != 1 || c.Config().MaxParallel != 2 {
		t.Fatalf("Local config = %+v", c.Config())
	}
	if Local(0).Config().MaxParallel <= 0 {
		t.Fatal("Local(0) did not default MaxParallel")
	}
}

func TestLPTMakespan(t *testing.T) {
	ds := []time.Duration{4, 3, 2, 1, 1, 1} // units
	if got := lptMakespan(ds, 1); got != 12 {
		t.Errorf("1 core: %d, want 12", got)
	}
	// 2 cores LPT: 4+1+1=6 vs 3+2+1=6.
	if got := lptMakespan(ds, 2); got != 6 {
		t.Errorf("2 cores: %d, want 6", got)
	}
	// More cores than tasks: bounded by the longest task.
	if got := lptMakespan(ds, 100); got != 4 {
		t.Errorf("100 cores: %d, want 4", got)
	}
	if got := lptMakespan(nil, 4); got != 0 {
		t.Errorf("empty: %d, want 0", got)
	}
	if got := lptMakespan([]time.Duration{5}, 0); got != 5 {
		t.Errorf("0 cores clamps to 1: %d, want 5", got)
	}
}

func TestMetricsAccumulate(t *testing.T) {
	c := MustNew(Config{Nodes: 2, CoresPerNode: 2, MaxParallel: 2})
	// The sleeps simulate work: Sleep lasts at least its argument, so only
	// the lower bounds below read them, and a slow host cannot fail them.
	c.runStage(stageSpec{op: "test"}, 4, func(i int) { time.Sleep(time.Millisecond) })
	m := c.Metrics()
	if m.Stages != 1 || m.Tasks != 4 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.TotalWork < 4*time.Millisecond {
		t.Errorf("TotalWork = %v, want >= 4ms", m.TotalWork)
	}
	if m.Makespan <= 0 || m.Makespan > m.TotalWork {
		t.Errorf("Makespan = %v not in (0, TotalWork=%v]", m.Makespan, m.TotalWork)
	}
	c.runSerial("test.serial", func() { time.Sleep(time.Millisecond) }) // simulated work, as above
	m = c.Metrics()
	if m.SerialTime < time.Millisecond {
		t.Errorf("SerialTime = %v", m.SerialTime)
	}
}

func TestVirtualScalingReducesMakespan(t *testing.T) {
	// The same workload on more virtual cores must have a smaller makespan;
	// this is the mechanism behind the Figure 12 speedup curves. Weighted
	// stages (the production path) apportion the measured total by data
	// weight, so a GC pause inside one task cannot dominate the placement.
	weights := make([]int64, 64)
	for i := range weights {
		weights[i] = 1
	}
	work := func(c *Cluster) time.Duration {
		c.runStage(stageSpec{op: "test", weights: weights}, 64, func(i int) {
			// Busy work ~ a fraction of a millisecond.
			s := 0
			for j := 0; j < 200000; j++ {
				s += j
			}
			_ = s
		})
		return c.Metrics().Makespan
	}
	small := work(MustNew(Config{Nodes: 1, CoresPerNode: 4, MaxParallel: 2}))
	big := work(MustNew(Config{Nodes: 16, CoresPerNode: 4, MaxParallel: 2}))
	if big >= small {
		t.Fatalf("makespan did not shrink with nodes: 1 node %v vs 16 nodes %v", small, big)
	}
}

func TestChargeMemory(t *testing.T) {
	c := MustNew(Config{Nodes: 4, CoresPerNode: 1})
	const want = 4000/4 + DefaultPlatformOverheadBytes
	c.chargeMemory(4000)
	if got := c.Metrics().PeakBytesPerNode; got != want {
		t.Fatalf("PeakBytesPerNode = %d, want 4000/4 + overhead", got)
	}
	c.chargeMemory(400) // smaller: peak unchanged
	if got := c.Metrics().PeakBytesPerNode; got != want {
		t.Fatalf("peak decreased: %d", got)
	}
}

func TestRunStageZeroTasks(t *testing.T) {
	c := Local(1)
	c.runStage(stageSpec{op: "test"}, 0, func(i int) { t.Fatal("task ran") })
	if m := c.Metrics(); m.Stages != 0 {
		t.Fatalf("empty stage recorded: %+v", m)
	}
}

func TestClusterContextStopsStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := MustNew(Config{Nodes: 1, CoresPerNode: 2, Context: ctx})
	if c.Err() != nil {
		t.Fatalf("live context reports %v", c.Err())
	}
	// A live cluster executes normally.
	if got := Collect(Map(Parallelize(c, seq(100), 4), func(x int) int { return x + 1 })); len(got) != 100 {
		t.Fatalf("pre-cancel map produced %d elements", len(got))
	}
	cancel()
	if c.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", c.Err())
	}
	// Post-cancel stages stop picking up tasks: output partitions stay empty.
	if got := Collect(Map(Parallelize(c, seq(100), 4), func(x int) int { return x + 1 })); len(got) != 0 {
		t.Fatalf("cancelled map still produced %d elements", len(got))
	}
}
