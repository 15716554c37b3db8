package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"csb/internal/cluster"
)

// Runner executes a normalized grid spec and writes the run directory:
//
//	<OutDir>/<Stamp>/results.csv   one row per cell, canonical order
//	<OutDir>/<Stamp>/logs/         one log per cell (timings, placement)
//	<OutDir>/<Stamp>/analysis.md   grouped summaries and paper-shaped tables
//
// results.csv is a pure function of the spec: same spec ⇒ same bytes, at
// any MaxParallel, with or without a Remote executor. The logs record
// wall-clock and placement and are explicitly outside that contract.
type Runner struct {
	Spec *GridSpec
	// SpecPath is echoed into analysis.md so the run is reproducible by
	// copy-paste; empty means "experiments.json".
	SpecPath string
	// MaxParallel bounds concurrent local cell executions (0 means
	// GOMAXPROCS). With a Remote executor it bounds in-flight dispatches.
	MaxParallel int
	// Remote, when non-nil, dispatches cells through the distributed
	// runtime (dist.Coordinator implements it). A declined dispatch
	// (cluster.ErrNoRemote, e.g. no live workers) falls back to local
	// execution — cells are pure functions, so placement never changes
	// results.
	Remote cluster.TaskExecutor
	// OutDir is the runs root (default "runs").
	OutDir string
	// Stamp names the run directory; empty derives it from the spec
	// content address (first 12 hex digits of GridSpec.ID), so one spec
	// maps to one directory.
	Stamp string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// RunResult reports a completed grid run.
type RunResult struct {
	Dir     string // the run directory
	CSVPath string
	Rows    []Row  // in canonical cell order
	CSV     []byte // the exact results.csv bytes
	Remote  int    // cells executed on dist workers
	Local   int    // cells executed in-process
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// cellOutcome is one cell's execution record for the log file.
type cellOutcome struct {
	row     *Row
	err     error
	where   string
	elapsed time.Duration
}

// Run executes every cell and writes the run directory. The first cell
// error cancels the remaining cells and fails the run.
func (r *Runner) Run(ctx context.Context) (*RunResult, error) {
	sp := r.Spec
	cells := sp.Cells()
	if len(cells) == 0 {
		return nil, errors.New("eval: grid has no cells")
	}
	par := r.MaxParallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(cells) {
		par = len(cells)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	outcomes := make([]cellOutcome, len(cells))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := range cells {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			outcomes[i] = r.runOne(ctx, cells[i])
			if outcomes[i].err != nil {
				cancel() // first failure stops the grid
			} else {
				r.logf("cell %d/%d done (%s, %s, %v)", i+1, len(cells),
					cells[i].Display(), outcomes[i].where, outcomes[i].elapsed.Round(time.Millisecond))
			}
		}(i)
	}
	wg.Wait()

	// Report a real cell failure over a "cancelled before start" outcome:
	// cancellation is the consequence, not the cause.
	for i := range outcomes {
		if err := outcomes[i].err; err != nil {
			return nil, fmt.Errorf("eval: cell %d (%s): %w", i, cells[i].Display(), err)
		}
	}
	res := &RunResult{Rows: make([]Row, len(cells))}
	for i := range outcomes {
		o := &outcomes[i]
		if o.row == nil { // cancelled before start
			return nil, fmt.Errorf("eval: cell %d (%s): cancelled: %w", i, cells[i].Display(), ctx.Err())
		}
		res.Rows[i] = *o.row
		switch o.where {
		case "local":
			res.Local++
		default:
			res.Remote++
		}
	}
	res.CSV = WriteCSV(res.Rows)

	// Write the run directory.
	stamp := r.Stamp
	if stamp == "" {
		stamp = sp.ID()[:12]
	}
	outDir := r.OutDir
	if outDir == "" {
		outDir = "runs"
	}
	res.Dir = filepath.Join(outDir, stamp)
	logsDir := filepath.Join(res.Dir, "logs")
	if err := os.MkdirAll(logsDir, 0o755); err != nil {
		return nil, fmt.Errorf("eval: creating run directory: %w", err)
	}
	res.CSVPath = filepath.Join(res.Dir, "results.csv")
	if err := os.WriteFile(res.CSVPath, res.CSV, 0o644); err != nil {
		return nil, fmt.Errorf("eval: writing results.csv: %w", err)
	}
	for i := range outcomes {
		if err := writeCellLog(logsDir, &cells[i], &outcomes[i]); err != nil {
			return nil, err
		}
	}
	analysis := Analysis(sp, r.specPath(), res.Rows)
	if err := os.WriteFile(filepath.Join(res.Dir, "analysis.md"), analysis, 0o644); err != nil {
		return nil, fmt.Errorf("eval: writing analysis.md: %w", err)
	}
	return res, nil
}

func (r *Runner) specPath() string {
	if r.SpecPath != "" {
		return r.SpecPath
	}
	return "experiments.json"
}

// runOne executes one cell, remotely when a Remote executor accepts it.
// Local and remote execution share RunCellBytes, so the row bytes cannot
// depend on placement.
func (r *Runner) runOne(ctx context.Context, c Cell) cellOutcome {
	start := time.Now()
	payload, err := json.Marshal(CellPayload{Spec: *r.Spec, Cell: c})
	if err != nil {
		return cellOutcome{err: fmt.Errorf("encoding payload: %w", err)}
	}
	var reply []byte
	where := "local"
	if r.Remote != nil {
		reply, err = r.Remote.ExecRemote(ctx,
			cluster.StageInfo{Op: "eval", Label: r.Spec.Name, Seq: 0},
			cluster.AttemptInfo{Task: c.Index},
			CellTaskKind, func() []byte { return payload })
		if err == nil {
			where = "remote"
		} else if ctx.Err() == nil {
			// Declined (no live workers) or failed (worker lost, cell
			// error) dispatches fall back to in-process execution: cells
			// are pure functions, so re-running locally either produces
			// the identical row or surfaces the cell's real error.
			if !errors.Is(err, cluster.ErrNoRemote) {
				r.logf("cell %d: remote dispatch failed (%v), retrying locally", c.Index, err)
			}
			reply, err = RunCellBytes(payload)
		}
	} else {
		reply, err = RunCellBytes(payload)
	}
	if err != nil {
		return cellOutcome{err: err, where: where, elapsed: time.Since(start)}
	}
	var row Row
	if err := json.Unmarshal(reply, &row); err != nil {
		return cellOutcome{err: fmt.Errorf("decoding cell reply: %w", err), where: where, elapsed: time.Since(start)}
	}
	return cellOutcome{row: &row, where: where, elapsed: time.Since(start)}
}

// writeCellLog records one cell's execution: identity, the csbd spec, its
// artifact ID (csbgen's "artifact csbg:" line) and SHA-256, placement,
// timing and headline metrics. Log contents are intentionally outside the
// byte-identity contract (they carry wall-clock).
func writeCellLog(dir string, c *Cell, o *cellOutcome) error {
	name := filepath.Join(dir, fmt.Sprintf("cell-%04d.log", c.Index))
	var body string
	if o.err != nil {
		body = fmt.Sprintf("cell %d: %s\nplacement: %s\nelapsed: %v\nerror: %v\n",
			c.Index, c.Display(), o.where, o.elapsed, o.err)
	} else {
		spec, err := json.Marshal(o.row.Spec)
		if err != nil {
			return fmt.Errorf("eval: encoding cell spec: %w", err)
		}
		body = fmt.Sprintf("cell %d: %s\nspec: %s\nartifact csbg: %s\nsha256: %s\nplacement: %s\nelapsed: %v\nvertices: %d\nedges: %d\ndegree_veracity: %s\nutility_gap: %s\n",
			c.Index, c.Display(), spec, o.row.Spec.ID(), o.row.SHA256, o.where, o.elapsed, o.row.Vertices, o.row.Edges,
			fmtF(o.row.Report.DegreeVeracity), fmtF(o.row.Utility.UtilityGap))
	}
	if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
		return fmt.Errorf("eval: writing cell log: %w", err)
	}
	return nil
}
