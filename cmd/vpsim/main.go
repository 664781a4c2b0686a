// Command vpsim runs one kernel under one value-predictor configuration and
// prints the headline statistics — the single-run workhorse behind the
// experiment harness. It dispatches through the backend-neutral repro.Runner:
// in-process by default, or against a warm vpserved daemon with -server, so
// parameter sweeps from the shell can reuse a remote memo.
//
// Usage:
//
//	vpsim -kernel art -pred vtage+stride -counters fpc -recovery squash
//	vpsim -kernel art -pred vtage -width 4 -max-hist 256          # extended spec
//	vpsim -kernel art -pred vtage -server http://127.0.0.1:8437   # remote dispatch
//	vpsim -kernel art -pred vtage -shards "$(cat fleet.addrs)"    # fleet dispatch
//	vpsim -kernel art -pred vtage -store-dir .vpstore             # persist the result
//	vpsim -program mywork.vasm -pred vtage                        # bring your own workload
//	vpsim -gen branchy:42 -pred vtage                             # generated workload
//
// -program accepts binary program encodings (.isa) and text assembly
// (.vasm) alike — the format is sniffed, not extension-driven. With
// -server, the program is uploaded to the daemon automatically. -gen
// builds the deterministic synthetic workload family:seed (see genprog
// -list); identical arguments reproduce byte-identical programs anywhere.
//
// Output is a flattened record; -format json emits it with the stable
// field names shared by -format csv|json everywhere else (DESIGN.md §5.3).
//
// Profiling the simulator (see README.md "Profiling the hot path"):
//
//	vpsim -kernel gzip -pred none -measure 2000000 -cpuprofile cpu.prof -memprofile mem.prof
//	go tool pprof -top cpu.prof
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
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
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

// run parses args, executes, and returns the process exit code, so the
// profile-flushing defers always execute even on failures and tests can
// drive the real flag path.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kernel := fs.String("kernel", "art", "kernel to simulate (see -list)")
	programFile := fs.String("program", "", "simulate this program file instead of a builtin kernel (binary .isa or text .vasm; format sniffed)")
	gen := fs.String("gen", "", `simulate a generated workload "family:seed" (families: `+strings.Join(repro.GeneratorFamilies(), ", ")+")")
	pred := fs.String("pred", "vtage", "value predictor: "+strings.Join(repro.Predictors(), ", "))
	counters := fs.String("counters", "fpc", "confidence counters: baseline or fpc")
	recovery := fs.String("recovery", "squash", "misprediction recovery: squash or reissue")
	warmup := fs.Uint64("warmup", harness.DefaultWarmup, "warmup µops")
	measure := fs.Uint64("measure", harness.DefaultMeasure, "measured µops")
	workers := fs.Int("workers", 0, "parallel simulation workers (<=0: GOMAXPROCS; ignored with -server: the daemon's pool applies)")
	width := fs.Int("width", 0, "machine width override (0: the paper's 8-wide)")
	loadsOnly := fs.Bool("loads-only", false, "restrict value prediction to load µops")
	maxHist := fs.Int("max-hist", 0, "VTAGE max history override (0: the paper's 64)")
	fpcVector := fs.String("fpc-vector", "", `explicit FPC vector, e.g. "0,2,2,2,2,3,3"`)
	format := fs.String("format", "text", "output format: text or json")
	server := fs.String("server", "", "run against this vpserved base URL instead of in-process")
	shards := fs.String("shards", "", "comma-separated vpserved base URLs: route across a fleet instead of in-process (see vpfleet)")
	storeDir := fs.String("store-dir", "", "persistent record store directory for in-process runs (empty: memory-only)")
	list := fs.Bool("list", false, "list kernels and exit")
	traceLog := fs.String("trace-log", "", "append one NDJSON span per run lifecycle stage to this file (empty: off)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile after the run to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, k := range repro.Kernels() {
			fmt.Fprintln(stdout, k)
		}
		return 0
	}

	if *server != "" && *shards != "" {
		fmt.Fprintln(stderr, "vpsim: -server and -shards both name a remote backend; use one")
		return 2
	}
	if *server != "" || *shards != "" {
		// Remote simulations are sized by the daemon; refuse explicit window
		// flags rather than silently returning differently-sized results.
		bad := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "warmup" || f.Name == "measure" {
				bad = true
			}
		})
		if bad {
			fmt.Fprintln(stderr, "vpsim: -warmup/-measure size local runs; a remote daemon's windows are set by vpserved -warmup/-measure")
			return 2
		}
		if *storeDir != "" {
			fmt.Fprintln(stderr, "vpsim: -store-dir applies to in-process runs; a remote daemon's store is set by vpserved -store-dir")
			return 2
		}
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "vpsim:", err)
		return 1
	}

	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "vpsim: unknown format %q (have text, json)\n", *format)
		return 2
	}

	// Resolve the workload source: builtin -kernel, a -program file, or a
	// -gen family:seed. Exactly one may be named.
	var prog *repro.Program
	if *programFile != "" && *gen != "" {
		fmt.Fprintln(stderr, "vpsim: -program and -gen both name a workload; use one")
		return 2
	}
	if *programFile != "" || *gen != "" {
		explicitKernel := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "kernel" {
				explicitKernel = true
			}
		})
		if explicitKernel {
			fmt.Fprintln(stderr, "vpsim: -kernel conflicts with -program/-gen; name one workload source")
			return 2
		}
	}
	if *programFile != "" {
		data, err := os.ReadFile(*programFile)
		if err != nil {
			fmt.Fprintln(stderr, "vpsim:", err)
			return 2
		}
		name := strings.TrimSuffix(filepath.Base(*programFile), filepath.Ext(*programFile))
		prog, err = repro.LoadProgram(name, data)
		if err != nil {
			fmt.Fprintf(stderr, "vpsim: %s: %v\n", *programFile, err)
			return 2
		}
	}
	if *gen != "" {
		family, seedStr, ok := strings.Cut(*gen, ":")
		if !ok {
			fmt.Fprintf(stderr, "vpsim: -gen wants family:seed (families: %s)\n",
				strings.Join(repro.GeneratorFamilies(), ", "))
			return 2
		}
		seed, err := strconv.ParseUint(seedStr, 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "vpsim: -gen seed %q: %v\n", seedStr, err)
			return 2
		}
		prog, err = repro.GenerateProgram(family, seed)
		if err != nil {
			fmt.Fprintln(stderr, "vpsim:", err)
			return 2
		}
	}

	spec := repro.Spec{
		Kernel:    *kernel,
		Predictor: *pred,
		Recovery:  repro.SquashAtCommit,
		Width:     *width,
		LoadsOnly: *loadsOnly,
		MaxHist:   *maxHist,
		FPCVec:    *fpcVector,
	}
	switch *counters {
	case "baseline":
		spec.Counters = repro.BaselineCounters
	case "fpc":
		spec.Counters = repro.FPC
	default:
		fmt.Fprintf(stderr, "vpsim: unknown counters %q (have baseline, fpc)\n", *counters)
		return 2
	}
	switch *recovery {
	case "squash":
	case "reissue":
		spec.Recovery = repro.SelectiveReissue
	default:
		fmt.Fprintf(stderr, "vpsim: unknown recovery %q (have squash, reissue)\n", *recovery)
		return 2
	}
	if prog != nil {
		// The content-addressed identity is computable before any backend
		// exists; registration below may still fold it onto a builtin name.
		spec.Kernel, spec.Program = "", repro.ProgramID(prog)
	}
	// Validate before any backend is built: an unknown kernel, an out-of-range
	// override, or an unparseable -fpc-vector is a usage error that must fail
	// fast, not after paying session warmup.
	if err := spec.Canonical().Validate(); err != nil {
		fmt.Fprintln(stderr, "vpsim:", err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Written after the run (LIFO before StopCPUProfile is fine: heap
		// accounting is independent of the CPU profile).
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "vpsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle accounting so the profile shows live + total allocation
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "vpsim:", err)
			}
		}()
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

	// -server is a fleet of one daemon, -shards routes across several. Their
	// windows and stores are the daemons' own (vpserved flags); the trace
	// writer still records this side's dispatch spans (the daemons trace
	// simulation stages via vpserved -trace-log).
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

	if prog != nil {
		id, err := runner.RegisterProgram(ctx, prog)
		if err != nil {
			return fail(err)
		}
		spec.Program = id
	}
	rec, err := runner.Simulate(ctx, spec)
	if err != nil {
		return fail(err)
	}
	if *format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			return fail(err)
		}
		return 0
	}
	printRecord(stdout, rec)
	return 0
}

// printRecord renders the human-readable report from the flattened record —
// the same fields whichever backend produced it.
func printRecord(w io.Writer, r repro.Record) {
	fmt.Fprintf(w, "kernel      %s\n", r.Kernel)
	fmt.Fprintf(w, "predictor   %s (%s counters, %s recovery)\n", r.Predictor, r.Counters, r.Recovery)
	if r.Width != 0 || r.LoadsOnly || r.MaxHist != 0 || r.FPCVector != "" {
		fmt.Fprintf(w, "config      width=%d loads_only=%t max_hist=%d fpc_vector=%q (0/false: paper default)\n",
			r.Width, r.LoadsOnly, r.MaxHist, r.FPCVector)
	}
	fmt.Fprintf(w, "IPC         %.3f\n", r.IPC)
	fmt.Fprintf(w, "speedup     %.3f (vs no value prediction)\n", r.Speedup)
	fmt.Fprintf(w, "coverage    %.1f%%\n", 100*r.Coverage)
	fmt.Fprintf(w, "accuracy    %.4f\n", r.Accuracy)
	fmt.Fprintf(w, "squashes    value=%d branch=%d memorder=%d reissued=%d\n",
		r.SquashValue, r.SquashBranch, r.SquashMemOrder, r.ReissuedUops)
	fmt.Fprintf(w, "branches    %.2f MPKI\n", r.BranchMPKI)
	fmt.Fprintf(w, "back-to-back eligible fetches: %.1f%%\n", 100*r.B2BFraction)
}
