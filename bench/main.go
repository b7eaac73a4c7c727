// Command bench is the repository's benchmark: four closed-loop
// workloads against two in-process daemons served over loopback TCP,
// five end-to-end metrics per workload and a ledger of per-layer metrics
// measured from outside the layers. README.md in this directory explains
// every workload and metric; BENCHMARK.json at the repository root is the
// contract the driver runs it by.
//
// It starts no process and leaves none behind: daemons, listeners and
// connections live in this process and are closed before it exits, on
// success, on SIGINT/SIGTERM and when the -deadline watchdog fires, and
// every file it writes is under -dir (removed on the way out) or -out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"
)

const (
	exitFailedOps   = 1
	exitUsage       = 2
	exitDeadline    = 3
	exitInterrupted = 130

	// perRunDeadline is the default -deadline for one run of one
	// workload; with teardownGrace it stays inside the 180 s the driver
	// gives a run.
	perRunDeadline = 150 * time.Second
	teardownGrace  = 20 * time.Second
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "", "run only this workload (default: all four)")
		seed      = flag.Int64("seed", 1, "drives every name, offset and byte the workloads generate")
		seconds   = flag.Float64("seconds", 10, "timed window per pass, in seconds")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics; 1: traced run with the per-layer metrics; default: both")
		calibrate = flag.Int("calibrate", 0, "run the selected set N times on seeds seed..seed+N-1 and report the spread of every metric")
		ledger    = flag.String("ledger", "", "with -calibrate: write the ledger JSON here")
		dir       = flag.String("dir", ".bench_build", "directory for daemon data; a fresh run-* subdirectory is used and removed")
		out       = flag.String("out", "bench/out", "directory a traced run writes its spans and layer table to")
		deadline  = flag.Duration("deadline", 0, "cancel the run and exit 3 after this long (default 150s per run); 20s later exit without waiting for teardown")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		flag.Usage()
		return exitUsage
	}
	selected := workloads
	if *workload != "" {
		wl := findWorkload(*workload)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return exitUsage
		}
		selected = []*workloadDef{wl}
	}
	traces := []bool{false, true}
	if *trace >= 0 {
		traces = []bool{*trace == 1}
	}
	rounds := max(*calibrate, 1)

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitUsage
	}
	runRoot, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitUsage
	}
	defer os.RemoveAll(runRoot)

	if *deadline == 0 {
		*deadline = perRunDeadline * time.Duration(len(selected)*len(traces)*rounds)
	}
	signalled, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithCancel(signalled)
	defer cancel()
	// At the deadline the run is cancelled the way a signal cancels it,
	// and the normal teardown runs. Only if that has not finished after
	// teardownGrace does the watchdog exit from under it; the process
	// dying closes every socket, so only the directory needs removing.
	// Daemons may still create files by path under the run root: renaming
	// it first makes those creates fail.
	var timedOut atomic.Bool
	soft := time.AfterFunc(*deadline, func() {
		fmt.Fprintf(os.Stderr, "bench: -deadline %v exceeded\n", *deadline)
		timedOut.Store(true)
		cancel()
	})
	defer soft.Stop()
	hard := time.AfterFunc(*deadline+teardownGrace, func() {
		fmt.Fprintln(os.Stderr, "bench: teardown did not finish, exiting")
		if dead := runRoot + ".dead"; os.Rename(runRoot, dead) == nil {
			os.RemoveAll(dead)
		}
		os.RemoveAll(runRoot)
		os.Exit(exitDeadline)
	})
	defer hard.Stop()

	cfg := &config{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		warmup: 2 * time.Second,
		// Some twenty probes: the whole set stays well under the two
		// seconds the issue allows a single one.
		probe: 150 * time.Millisecond,
		scale: 1,
		dir:   runRoot,
		out:   *out,
	}
	var all [][]*result
	failed := false
	for round := 0; round < rounds; round++ {
		roundCfg := *cfg
		roundCfg.seed += int64(round)
		var results []*result
		for _, wl := range selected {
			for _, traced := range traces {
				r, err := runOne(ctx, &roundCfg, wl, traced)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					switch {
					case timedOut.Load():
						return exitDeadline
					case errors.Is(err, context.Canceled):
						return exitInterrupted
					}
					return exitUsage
				}
				printResult(os.Stdout, r, traced)
				failed = failed || !r.Correct
				results = append(results, r)
			}
		}
		all = append(all, results)
	}
	if *calibrate > 0 {
		if err := reportCalibration(os.Stdout, all, *seed, runRoot, *ledger); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return exitUsage
		}
	} else if len(all[0]) == 1 {
		// The driver's contract: the last line is the one result, and a
		// run that produced one exits 0; failed operations are in the
		// line (correct, failed), not in the exit code.
		if err := printContractLine(os.Stdout, all[0][0], traces[0]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return exitUsage
		}
		return 0
	}
	if failed {
		return exitFailedOps
	}
	return 0
}

// runOne runs one workload once, traced or not.
func runOne(ctx context.Context, cfg *config, wl *workloadDef, traced bool) (*result, error) {
	if traced {
		return runTraced(ctx, cfg, wl)
	}
	return runUntraced(ctx, cfg, wl)
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric by name with its unit, the failures
// and, for a traced run, the layer-share table.
func printResult(w io.Writer, r *result, traced bool) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s: %s; attempted %d, failed %d, correct %v\n", r.Workload, kind, r.Attempted, r.Failed, r.Correct)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, d := range defsFor(traced) {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, v, d.Unit)
		}
	}
	tw.Flush()
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "  layer shares:\n")
		tw = tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		for _, l := range r.Layers {
			fmt.Fprintf(tw, "    %s\t%5.1f%%\tof %s\n", l.Layer, 100*l.Share, l.Of)
		}
		tw.Flush()
	}
}

// printContractLine prints the single-line JSON object the driver reads.
func printContractLine(w io.Writer, r *result, traced bool) error {
	metrics, missing := r.Metrics.render(defsFor(traced))
	if len(missing) > 0 {
		return fmt.Errorf("%s: metrics not measured: %v", r.Workload, missing)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
