// IDS pipeline: the Section IV anomaly-detection approach end to end —
// assemble background flows from a trace, inject labeled attacks, train
// thresholds on clean traffic, detect, and grade the result.
//
//	go run ./examples/ids-pipeline
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"csb"
)

func main() {
	log.SetFlags(0)

	// Background traffic for two different days: one to train thresholds
	// on, one to carry the attacks.
	trainPkts, err := csb.SynthesizeTrace(csb.DefaultTraceConfig(60, 1200, 7))
	if err != nil {
		log.Fatal(err)
	}
	livePkts, err := csb.SynthesizeTrace(csb.DefaultTraceConfig(60, 1200, 8))
	if err != nil {
		log.Fatal(err)
	}
	trainFlows := csb.AssembleFlows(trainPkts)
	liveFlows := csb.AssembleFlows(livePkts)
	fmt.Printf("training on %d clean flows, analyzing %d live flows\n",
		len(trainFlows), len(liveFlows))

	// Inject one of each attack class into the live traffic.
	s := csb.NewScenario(liveFlows)
	rng := rand.New(rand.NewPCG(9, 9))
	base := int64(1318204800) * 1e6
	s.InjectHostScan(rng, 0xbad00001, 0x0a000003, 1500, base)
	s.InjectNetworkScan(rng, 0xbad00002, 0x0a020000, 200, 22, base)
	s.InjectSYNFlood(rng, 0x0a000005, 443, 2500, base)
	s.InjectDDoS(rng, 0x0a000009, 90, 3, base)
	fmt.Printf("injected %d attacks into %d total flows\n", len(s.Labels), len(s.Flows))

	// Train thresholds on the clean day (the paper: thresholds are network
	// driven and must be trained per target network).
	thresholds := csb.TrainThresholds(trainFlows, 0.99, 2)

	// Detect and report.
	alerts := csb.DetectFlows(s.Flows, thresholds)
	fmt.Printf("\n%d alerts:\n", len(alerts))
	for _, a := range alerts {
		fmt.Printf("  %s\n", a)
	}

	out := s.Score(alerts)
	fmt.Printf("\nprecision %.2f, recall %.2f, F1 %.2f (TP=%d FP=%d FN=%d)\n",
		out.Precision(), out.Recall(), out.F1(),
		out.TruePositives, out.FalsePositives, out.FalseNegatives)
}
