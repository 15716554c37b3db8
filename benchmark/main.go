// Command benchmark is the repo's benchmark: four closed-loop workloads that
// follow the path a user takes from a spec to a detector verdict, a fixed
// list of end-to-end metrics later changes are gated on, and a traced run
// that splits each operation's wall time across layers. See README.md.
//
//	go run ./benchmark                                  every workload, both runs, result.json
//	go run ./benchmark --workload gen-pgpba --seed 7 --seconds 15 --trace 0
//	go run ./benchmark -compare a/result.json b/result.json
//
// With --workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// defaultSeed is the date of the paper's conference.
const defaultSeed = 20171010

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "run one workload in this process: "+fmt.Sprint(workloadNames)+" (default: all, one process each)")
		seed    = fs.Uint64("seed", defaultSeed, "derives every spec seed")
		seconds = fs.Float64("seconds", defaultSeconds, "length of the measured window")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, span recording off; 1: per-layer metrics from the traced run")
		out     = fs.String("out", filepath.Join("benchmark", "out"), "directory for result files, traces and the daemon's spill dir")
		repeat  = fs.Int("repeat", 1, "with no -workload: how many times to run the set of workloads (seed, seed+1, ...)")
		compare = fs.Bool("compare", false, "compare two result.json files: -compare parent.json change.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case fs.NArg() != 0:
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	case *trace != 0 && *trace != 1, *seconds <= 0, *repeat < 1:
		return fail(fmt.Errorf("want -trace 0 or 1, -seconds > 0, -repeat >= 1"))
	case *wl == "":
		if err := runAll(ctx, stdout, stderr, *out, *seed, *seconds, *repeat); err != nil {
			return fail(err)
		}
		return 0
	}

	if !strings.Contains(os.Getenv("GODEBUG"), pinnedGODEBUG) {
		// The runtime reads GODEBUG once, at start: run again with it set.
		code, err := reexec(ctx, args, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		return code
	}
	runtime.GOMAXPROCS(pinnedProcs)
	w, err := newWorkload(*wl, fullSizes, *seed, *out)
	if err != nil {
		return fail(err)
	}
	res, err := runWorkload(ctx, w, fullSizes, *seed, *seconds, *trace)
	if err != nil {
		return fail(err)
	}
	if err := report(stdout, *out, res); err != nil {
		return fail(err)
	}
	return 0
}

// pinnedGODEBUG makes the runtime return heap pages to the kernel lazily
// (MADV_FREE). Under the Go default the scavenger's eager release makes every
// job re-fault the pages of its ~375 MB of allocations: the same gen-pgpba
// spec then takes anywhere between 150 and 350 ms from one repeat to the
// next, and no bound under 25% could gate anything. README.md records what
// the default costs.
const pinnedGODEBUG = "madvdontneed=0"

// workloadEnv is the environment of a workload process.
func workloadEnv() []string {
	godebug := pinnedGODEBUG
	if cur := os.Getenv("GODEBUG"); cur != "" {
		godebug = cur + "," + pinnedGODEBUG
	}
	return append(os.Environ(), "GODEBUG="+godebug)
}

// reexec runs this program again under workloadEnv, passes its output
// through and returns its exit code.
func reexec(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env, cmd.Stdout, cmd.Stderr = workloadEnv(), stdout, stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), nil
	}
	return 0, err
}

func newWorkload(name string, sz sizes, seed uint64, scratch string) (workload, error) {
	switch name {
	case wlGenPGPBA, wlGenPGSK:
		return newGenWorkload(name, sz, seed), nil
	case wlServeMix:
		return newServeWorkload(sz, seed, scratch), nil
	case wlReplayDetect:
		return newReplayWorkload(sz, seed, scratch), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// contractLine is the last line a workload process prints.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name, writes the run's result file (and
// trace) under dir, and ends with the contract line: every end-to-end metric
// on the untraced run, every per-layer metric (0 for a layer the workload
// does not touch) on the traced one.
func report(stdout io.Writer, dir string, res *result) error {
	fmt.Fprintf(stdout, "%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s commit=%s shape=%q\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Stamp.NumCPU, res.Stamp.GOMAXPROCS,
		res.Stamp.GoVersion, res.Stamp.Commit, res.Stamp.Shape)
	if res.Stamp.Degraded {
		fmt.Fprintf(stdout, "DEGRADED: %d CPU for GOMAXPROCS %d; these numbers compare with no other run\n", res.Stamp.NumCPU, pinnedProcs)
	}
	fmt.Fprint(stdout, res.Metrics)
	if res.Trace == 1 {
		writeLayerTable(stdout, res.Workload, res.LayerTable, res.Metrics["trace.layer_sum_ratio"].Value)
		if len(res.LayerTable) > 0 {
			fmt.Fprintf(stdout, "dominant layer: %s\n", res.LayerTable[0].Layer)
		}
		if name := slowestStreamRate(res.Metrics); name != "" {
			fmt.Fprintf(stdout, "slowest stream rate: %s\n", name)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s.trace%d", res.Workload, res.Trace))
	if err := writeJSONFile(stem+".json", res); err != nil {
		return err
	}
	if res.Trace == 1 {
		f, err := os.Create(stem + ".chrome.json")
		if err != nil {
			return err
		}
		if err := writeChromeTrace(f, res.Workload, res.spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractMetric{}}
	for _, d := range defs {
		line.Metrics[d.Name] = contractMetric{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultFile is result.json: every run of a full pass, in the order made.
type resultFile struct {
	Runs []result `json:"runs"`
}

// runAll runs every workload in a process of its own (so heap state does not
// carry over), untraced then traced, repeat times in alternating order, and
// gathers the runs into result.json.
func runAll(ctx context.Context, stdout, stderr io.Writer, dir string, seed uint64, seconds float64, repeat int) error {
	var all resultFile
	incorrect := 0
	for r := 0; r < repeat; r++ {
		names := slices.Clone(workloadNames)
		if r%2 == 1 {
			slices.Reverse(names)
		}
		for _, name := range names {
			for trace := 0; trace <= 1; trace++ {
				res, err := runChild(ctx, stdout, stderr, dir, name, seed+uint64(r), seconds, trace)
				if err != nil {
					return fmt.Errorf("%s trace=%d: %w", name, trace, err)
				}
				if !res.Correct {
					incorrect++
				}
				all.Runs = append(all.Runs, res)
				fmt.Fprintln(stdout)
			}
		}
	}
	path := filepath.Join(dir, "result.json")
	if err := writeJSONFile(path, all); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d runs)\n", path, len(all.Runs))
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed their correctness checks", incorrect)
	}
	return nil
}

// runChild runs one workload in a child process, passes its report through
// less the contract line, and reads back the result file it wrote.
func runChild(ctx context.Context, stdout, stderr io.Writer, dir, name string, seed uint64, seconds float64, trace int) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", dir)
	cmd.Env, cmd.Stderr = workloadEnv(), stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for held, first := "", true; sc.Scan(); held, first = sc.Text(), false {
		if !first {
			fmt.Fprintln(stdout, held)
		}
	}
	if err := cmd.Wait(); err != nil {
		return res, err
	}
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s.trace%d.json", name, trace)))
	if err != nil {
		return res, err
	}
	return res, json.Unmarshal(data, &res)
}
