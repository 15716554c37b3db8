// Command csbids runs the Section IV Netflow anomaly detector over a
// property graph (CSBG file) or a flows CSV, with thresholds trained from
// the traffic itself or supplied defaults. With -stream, flows replay
// through the on-line detector in tumbling windows.
//
// Usage:
//
//	csbids -graph syn.csbg
//	csbids -flows flows.csv -train-quantile 0.99
//	csbids -demo -stream -window-sec 60
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sort"

	"csb/internal/attack"
	"csb/internal/graph"
	"csb/internal/ids"
	"csb/internal/netflow"
	"csb/internal/pcap"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "csbids:", err)
		os.Exit(1)
	}
}

// run executes the tool; factored from main for testing.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("csbids", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		graphIn   = fs.String("graph", "", "property graph to analyze (CSBG)")
		flowsIn   = fs.String("flows", "", "flow CSV to analyze")
		demo      = fs.Bool("demo", false, "run the built-in demo: background traffic with injected attacks")
		quantile  = fs.Float64("train-quantile", 0.99, "threshold training quantile")
		margin    = fs.Float64("train-margin", 2, "threshold training margin")
		defaults  = fs.Bool("defaults", false, "use the built-in default thresholds instead of training")
		seed      = fs.Uint64("seed", 42, "RNG seed for the demo")
		stream    = fs.Bool("stream", false, "replay flows through the streaming detector")
		windowSec = fs.Int64("window-sec", 60, "streaming window length in seconds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var flows []netflow.Flow
	var trainFlows []netflow.Flow // demo mode trains on a separate clean day
	switch {
	case *demo:
		var err error
		if flows, err = demoFlows(*seed, stdout); err != nil {
			return err
		}
		pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(40, 800, *seed+1))
		if err != nil {
			return err
		}
		trainFlows = netflow.Assemble(pkts, 0)
	case *graphIn != "":
		f, err := os.Open(*graphIn)
		if err != nil {
			return err
		}
		g, err := graph.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		flows = netflow.FlowsFromGraph(g)
	case *flowsIn != "":
		f, err := os.Open(*flowsIn)
		if err != nil {
			return err
		}
		var err2 error
		flows, err2 = netflow.ReadCSV(f)
		f.Close()
		if err2 != nil {
			return err2
		}
	default:
		return fmt.Errorf("one of -graph, -flows or -demo is required")
	}
	fmt.Fprintf(stdout, "analyzing %d flows\n", len(flows))

	var t ids.Thresholds
	switch {
	case *defaults:
		t = ids.DefaultThresholds()
		fmt.Fprintln(stdout, "using default thresholds")
	case trainFlows != nil:
		t = ids.TrainThresholds(trainFlows, *quantile, *margin)
		fmt.Fprintf(stdout, "trained thresholds on clean traffic at q=%.2f margin=%.1f\n", *quantile, *margin)
	default:
		t = ids.TrainThresholds(flows, *quantile, *margin)
		fmt.Fprintf(stdout, "trained thresholds at q=%.2f margin=%.1f\n", *quantile, *margin)
	}

	var alerts []ids.Alert
	if *stream {
		sort.Slice(flows, func(i, j int) bool { return flows[i].StartMicros < flows[j].StartMicros })
		det := ids.NewStreamDetector(t, *windowSec*1e6, func(a ids.Alert) {
			alerts = append(alerts, a)
			fmt.Fprintf(stdout, "[stream] %s\n", a)
		})
		for _, f := range flows {
			det.Add(f)
		}
		det.Flush()
	} else {
		alerts = ids.NewDetector(t).Detect(flows)
		for _, a := range alerts {
			fmt.Fprintln(stdout, a)
		}
	}
	if len(alerts) == 0 {
		fmt.Fprintln(stdout, "no anomalies detected")
		return nil
	}
	fmt.Fprintf(stdout, "%d alerts\n", len(alerts))
	return nil
}

// demoFlows builds background traffic plus one of each attack class.
func demoFlows(seed uint64, stdout io.Writer) ([]netflow.Flow, error) {
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(40, 800, seed))
	if err != nil {
		return nil, err
	}
	s := attack.NewScenario(netflow.Assemble(pkts, 0))
	rng := rand.New(rand.NewPCG(seed, 0xde30))
	base := int64(1318204800) * 1e6
	s.InjectHostScan(rng, 0xbad00001, 0x0a000003, 1500, base)
	s.InjectNetworkScan(rng, 0xbad00002, 0x0a010000, 200, 22, base)
	s.InjectSYNFlood(rng, 0x0a000005, 80, 2500, base)
	s.InjectDDoS(rng, 0x0a000009, 80, 3, base)
	fmt.Fprintf(stdout, "demo: %d labeled attacks injected\n", len(s.Labels))
	return s.Flows, nil
}
