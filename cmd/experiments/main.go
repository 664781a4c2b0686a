// Command experiments regenerates the paper's tables and figures
// (DESIGN.md §5 maps each id to the paper artifact). It runs through the
// backend-neutral repro.Runner: in-process by default, or against a warm
// vpserved daemon with -server — same ids, same flags, byte-identical
// output.
//
// Usage:
//
//	experiments -all                         # everything (several minutes)
//	experiments -run fig4                    # one table/figure
//	experiments -run fig4 -measure 1000000   # bigger windows
//	experiments -run fig4 -workers 8         # parallel simulation
//	experiments -run fig4 -format json       # structured results
//	experiments -run abl-fpc -format csv     # ablations are structured too
//	experiments -run fig4 -server http://127.0.0.1:8437   # remote, memo-warm
//	experiments -run fig4 -shards "$(cat fleet.addrs)"    # sharded across a fleet
//	experiments -list -server http://127.0.0.1:8437       # the server's index
//	experiments -run fig4 -store-dir .vpstore             # warm-start next run
//	experiments -corpus ./corpus -pred lvp,stride,vtage   # sweep your own programs
//
// -corpus sweeps every program file (.isa binary or .vasm text assembly,
// format sniffed) in a directory across the -pred predictor list, through
// whichever backend the other flags select — programs are registered with
// the runner (uploaded, when remote) automatically. Generate a corpus with
// genprog.
//
// Ctrl-C (SIGINT) or SIGTERM cancels cleanly: in-flight simulations stop at
// their next cancellation checkpoint (local and remote — a remote request
// is cancelled server-side) and the process exits nonzero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro"
	"repro/internal/harness"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns the
// process exit code. ctx cancels in-flight work (the signal handler in main
// wires it to SIGINT/SIGTERM); an interrupted run exits 130, the shell
// convention for death-by-SIGINT.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runID := fs.String("run", "", "experiment id to run (see -list)")
	all := fs.Bool("all", false, "run every experiment")
	warmup := fs.Uint64("warmup", harness.DefaultWarmup, "warmup µops per simulation")
	measure := fs.Uint64("measure", harness.DefaultMeasure, "measured µops per simulation")
	workers := fs.Int("workers", 0, "parallel simulation workers (<=0: GOMAXPROCS; remote: server pool)")
	format := fs.String("format", "text", "output format for -run: text, json, or csv")
	list := fs.Bool("list", false, "list experiment ids and exit")
	corpus := fs.String("corpus", "", "sweep every program file in this directory (instead of -run/-all)")
	preds := fs.String("pred", "lvp,stride,vtage", "comma-separated predictors for the -corpus sweep")
	server := fs.String("server", "", "run against this vpserved base URL instead of in-process")
	shards := fs.String("shards", "", "comma-separated vpserved base URLs: route across a fleet instead of in-process (see vpfleet)")
	storeDir := fs.String("store-dir", "", "persistent record store directory for in-process runs (empty: memory-only)")
	traceLog := fs.String("trace-log", "", "append one NDJSON span per run lifecycle stage to this file (empty: off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		if harness.IsContextErr(err) {
			fmt.Fprintln(stderr, "experiments: interrupted:", err)
			return 130
		}
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	opts := repro.RunnerOptions{
		Warmup: *warmup, Measure: *measure, Workers: *workers, StoreDir: *storeDir,
	}
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		opts.TraceWriter = f
	}

	if *server != "" && *shards != "" {
		fmt.Fprintln(stderr, "experiments: -server and -shards both name a remote backend; use one")
		return 2
	}
	remote := *server != "" || *shards != ""
	if remote && *storeDir != "" {
		fmt.Fprintln(stderr, "experiments: -store-dir applies to in-process runs; a remote daemon's store is set by vpserved -store-dir")
		return 2
	}
	windows := false
	fs.Visit(func(f *flag.Flag) { windows = windows || f.Name == "warmup" || f.Name == "measure" })
	if remote && windows {
		fmt.Fprintln(stderr, "experiments: -warmup/-measure apply to in-process runs; a remote daemon's windows are set by vpserved -warmup/-measure")
		return 2
	}
	// -server is a fleet of one daemon, -shards routes across several.
	// Remote runs trace dispatch spans only; the daemons trace simulation
	// stages via vpserved -trace-log.
	ro := repro.RunnerOptions{Shards: strings.Split(*shards, ","), TraceWriter: opts.TraceWriter}
	var runner repro.Runner
	var err error
	switch {
	case *server != "":
		runner = repro.OpenRemoteRunner(*server, ro)
	case *shards != "":
		runner, err = repro.OpenShardedRunner(ro)
	default:
		runner, err = repro.OpenLocalRunner(opts)
	}
	if err != nil {
		return fail(err)
	}
	defer runner.Close()

	eo := repro.ExperimentOptions{Format: *format}

	if *corpus != "" {
		if *runID != "" || *all {
			fmt.Fprintln(stderr, "experiments: -corpus is its own sweep; drop -run/-all")
			return 2
		}
		if err := runCorpus(ctx, runner, *corpus, *preds, *format, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	index, err := runner.Experiments(ctx)
	if err != nil {
		return fail(err)
	}

	switch {
	case *list:
		printIndex(stdout, index)
		return 0
	case *all:
		if *format != "text" {
			fmt.Fprintln(stderr, "experiments: -format json|csv applies to -run, not -all")
			return 2
		}
		for _, e := range index {
			fmt.Fprintf(stdout, "==== %s: %s ====\n", e.ID, e.Title)
			if err := runner.Experiment(ctx, e.ID, eo, stdout); err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, strings.Repeat("-", 70))
		}
	case *runID != "":
		e, ok := experimentByID(index, *runID)
		if !ok {
			fmt.Fprintf(stderr, "experiments: unknown id %q; the experiment index (DESIGN.md §5.1):\n", *runID)
			printIndex(stderr, index)
			return 2
		}
		if *format == "text" {
			fmt.Fprintf(stdout, "==== %s: %s ====\n", e.ID, e.Title)
		}
		if err := runner.Experiment(ctx, e.ID, eo, stdout); err != nil {
			return fail(err)
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// runCorpus loads every program file in dir (sorted by name, .isa and .vasm
// alike), registers each with the runner, and batches the program × predictor
// sweep through it — so a corpus run exercises exactly the Simulate path a
// builtin sweep does, local or remote. Text output is a compact table; json
// and csv emit the same stable Record fields as everywhere else.
func runCorpus(ctx context.Context, runner repro.Runner, dir, preds, format string, stdout io.Writer) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type loaded struct {
		file string
		id   string
	}
	var programs []loaded
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := filepath.Ext(e.Name())
		if ext != ".isa" && ext != ".vasm" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		p, err := repro.LoadProgram(strings.TrimSuffix(e.Name(), ext), data)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		id, err := runner.RegisterProgram(ctx, p)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		programs = append(programs, loaded{file: e.Name(), id: id})
	}
	if len(programs) == 0 {
		return fmt.Errorf("no program files (.isa, .vasm) in %s", dir)
	}

	var predictors []string
	for _, p := range strings.Split(preds, ",") {
		if p = strings.TrimSpace(p); p != "" {
			predictors = append(predictors, p)
		}
	}
	if len(predictors) == 0 {
		return fmt.Errorf("empty -pred list")
	}
	var specs []repro.Spec
	for _, prog := range programs {
		for _, pred := range predictors {
			specs = append(specs, repro.Spec{Program: prog.id, Predictor: pred, Counters: repro.FPC})
		}
	}

	var recs []repro.Record
	if err := runner.Batch(ctx, specs, func(r repro.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		return err
	}
	switch format {
	case "json":
		return harness.WriteJSON(stdout, recs)
	case "csv":
		return harness.WriteCSV(stdout, recs)
	case "", "text":
		fmt.Fprintf(stdout, "%-24s %-12s %8s %8s %9s %9s\n", "program", "predictor", "ipc", "speedup", "coverage", "accuracy")
		for i, r := range recs {
			fmt.Fprintf(stdout, "%-24s %-12s %8.3f %8.3f %8.1f%% %9.4f\n",
				programs[i/len(predictors)].file, r.Predictor, r.IPC, r.Speedup, 100*r.Coverage, r.Accuracy)
		}
		return nil
	default:
		return fmt.Errorf("unknown format %q (have text, json, csv)", format)
	}
}

func experimentByID(index []repro.ExperimentInfo, id string) (repro.ExperimentInfo, bool) {
	for _, e := range index {
		if e.ID == id {
			return e, true
		}
	}
	return repro.ExperimentInfo{}, false
}

// printIndex writes the §5.1 experiment index: id and the paper artifact it
// regenerates.
func printIndex(w io.Writer, index []repro.ExperimentInfo) {
	for _, e := range index {
		fmt.Fprintf(w, "%-9s %s\n", e.ID, e.Title)
	}
}
