// Command csbseed builds seed datasets: it synthesizes (or reads) a PCAP
// trace, assembles Netflow records, maps them onto a property graph and
// writes any of the representations — the Figure 1 preliminary steps.
//
// Usage:
//
//	csbseed -hosts 100 -sessions 2000 -pcap-out seed.pcap -graph-out seed.csbg
//	csbseed -pcap-in capture.pcap -flows-out flows.csv -graph-out seed.csbg
//	csbseed -pcap-in capture.pcap -v5-out flows.nf5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"csb/internal/netflow"
	"csb/internal/pcap"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "csbseed:", err)
		os.Exit(1)
	}
}

// run executes the tool; factored from main for testing.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("csbseed", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		hosts    = fs.Int("hosts", 100, "hosts in the synthetic trace")
		sessions = fs.Int("sessions", 2000, "sessions (flows) in the synthetic trace")
		seed     = fs.Uint64("seed", 42, "RNG seed")
		pcapIn   = fs.String("pcap-in", "", "read this PCAP instead of synthesizing")
		pcapOut  = fs.String("pcap-out", "", "write the trace as a PCAP capture")
		flowsOut = fs.String("flows-out", "", "write assembled flows as CSV")
		v5Out    = fs.String("v5-out", "", "write assembled flows as NetFlow v5 export messages")
		graphOut = fs.String("graph-out", "", "write the property graph (CSBG format)")
		edgeList = fs.String("edgelist-out", "", "write the property graph as a TSV edge list")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var packets []pcap.PacketInfo
	if *pcapIn != "" {
		f, err := os.Open(*pcapIn)
		if err != nil {
			return err
		}
		packets, err = pcap.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "read %d IPv4 packets from %s\n", len(packets), *pcapIn)
	} else {
		var err error
		packets, err = pcap.Synthesize(pcap.DefaultTraceConfig(*hosts, *sessions, *seed))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "synthesized %d packets (%d hosts, %d sessions)\n", len(packets), *hosts, *sessions)
	}

	if *pcapOut != "" {
		if err := writeTo(*pcapOut, func(w io.Writer) error { return pcap.WriteTrace(w, packets) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote PCAP to %s\n", *pcapOut)
	}

	flows := netflow.Assemble(packets, 0)
	fmt.Fprintf(stdout, "assembled %d flows\n", len(flows))
	if *flowsOut != "" {
		if err := writeTo(*flowsOut, func(w io.Writer) error { return netflow.WriteCSV(w, flows) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote flows to %s\n", *flowsOut)
	}
	if *v5Out != "" {
		if err := writeTo(*v5Out, func(w io.Writer) error { return netflow.WriteV5(w, flows) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote NetFlow v5 export to %s\n", *v5Out)
	}

	g := netflow.BuildGraph(flows)
	fmt.Fprintf(stdout, "seed graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	if *graphOut != "" {
		if err := writeTo(*graphOut, g.Write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote graph to %s\n", *graphOut)
	}
	if *edgeList != "" {
		if err := writeTo(*edgeList, func(w io.Writer) error {
			_, err := w.Write(g.AppendEdgeList(nil))
			return err
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote edge list to %s\n", *edgeList)
	}
	return nil
}

func writeTo(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
