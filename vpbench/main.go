// Command vpbench is the repository benchmark. It runs one of four
// workloads against the simulator stack, times calls into each layer's
// public functions from outside, checks every record it gets back, and
// prints the end-to-end metrics (or, traced, the per-layer metrics) as
// `workload metric value unit` lines followed by one JSON result line.
//
// Run it from the repository root through the build script, which keeps
// the build inside .bench_build/:
//
//	bash vpbench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
//	bash vpbench/run.sh -workload all -trace 1
//	bash vpbench/run.sh -compare parent/sweep-cold.json change/sweep-cold.json
//
// README.md in this directory describes the workloads, the metric catalog
// and how to read the traced ledger.
package main

import (
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
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses the arguments and runs one workload, all workloads, or a
// comparison. Exit codes: 0 correct, 1 a check failed or the run broke, 2
// usage.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := defaultConfig()
	fs := flag.NewFlagSet("vpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "all", "workload to run: one of "+workloadNames()+", or all (each in its own process)")
	fs.Uint64Var(&c.seed, "seed", c.seed, "seed of the generated-program corpus and the request mix")
	fs.Float64Var(&c.seconds, "seconds", c.seconds, "measurement time of one run, in seconds")
	fs.IntVar(&c.samples, "samples", 0, "fixed number of samples (0: as many as fit in -seconds)")
	traceFlag := fs.Int("trace", 0, "1: add a traced sample and report the per-layer metrics instead")
	fs.StringVar(&c.outDir, "out", c.outDir, "directory for result files and trace artifacts")
	fs.IntVar(&c.fleetPort, "fleet-port", c.fleetPort, "first of the fixed loopback ports fleet-cold's shards listen on")
	compare := fs.String("compare", "", "parent result file: compare it with the change result file given as the argument")
	benchJSON := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json holding the regression bounds, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "vpbench: -compare parent.json takes the change result file as its one argument")
			return 2
		}
		if err := compareFiles(*compare, fs.Arg(0), *benchJSON, stdout); err != nil {
			fmt.Fprintln(stderr, "vpbench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) || c.seconds <= 0 || c.samples < 0 {
		fmt.Fprintln(stderr, "vpbench: bad arguments (want -trace 0|1, -seconds > 0, -samples >= 0, no positional arguments)")
		return 2
	}
	c.trace = *traceFlag == 1
	if c.workload == "all" {
		return runAll(ctx, c, stdout, stderr)
	}
	res, err := runOne(ctx, c, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "vpbench: %s: %v\n", c.workload, err)
		return 1
	}
	if err := writeResults(resultPath(c.outDir, c.workload, c.trace), []*runResult{res}); err != nil {
		fmt.Fprintln(stderr, "vpbench:", err)
		return 1
	}
	printResult(stdout, res)
	if err := printFinal(stdout, res.Correct, res.Attempted, res.Failed, res.metricValues()); err != nil {
		fmt.Fprintln(stderr, "vpbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runResult is one workload run as written to its result file.
type runResult struct {
	Workload  string     `json:"workload"`
	Seed      uint64     `json:"seed"`
	Warmup    uint64     `json:"warmup_uops"`
	Measure   uint64     `json:"measure_uops"`
	Traced    bool       `json:"traced"`
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Problems  []string   `json:"problems,omitempty"`
	Digest    string     `json:"digest,omitempty"`
	Split     [][]uint64 `json:"shard_sims_per_sample,omitempty"`
	// EndToEnd holds the end-to-end metrics scaled to the nominal host
	// speed (README.md, "Host speed"); EndToEndRaw the same as measured.
	EndToEnd    map[string]dist `json:"end_to_end"`
	EndToEndRaw map[string]dist `json:"end_to_end_raw"`
	// Host speed around the setups and around the samples, and the
	// reference loop's readings each was taken from.
	SetupSpeed  float64   `json:"host_speed_setup"`
	SampleSpeed float64   `json:"host_speed_samples"`
	SetupCalib  []float64 `json:"calib_setup"`
	SampleCalib []float64 `json:"calib_samples"`
	// CallP99 is reported beside the gated percentiles with its count; it
	// does not repeat closely enough between runs to carry a bound.
	CallP99  *dist              `json:"call_p99_us,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Ledger   *ledger            `json:"ledger,omitempty"`
	SelfS    map[string]float64 `json:"bench_span_self_s,omitempty"`
	Cards    []card             `json:"cards"`
}

// metricValues is the final line's metrics: the end-to-end catalog on an
// untraced run, the per-layer catalog on a traced one.
func (r *runResult) metricValues() map[string]metricValue {
	out := make(map[string]metricValue)
	if r.Traced {
		for _, d := range perLayer {
			out[d.Name] = metricValue{r.PerLayer[d.Name], d.Unit}
		}
		return out
	}
	for _, d := range endToEnd {
		out[d.Name] = metricValue{r.EndToEnd[d.Name].Median, d.Unit}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process: its setups, its untraced
// samples, the traced sample when asked for, and every output check.
func runOne(ctx context.Context, c *config, log io.Writer) (*runResult, error) {
	w, err := newWorkload(c)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(log, "vpbench: %s: "+format+"\n", append([]any{c.workload}, args...)...)
	}

	// The reference loop reads the host's speed right before and right
	// after the setups, and after the samples (takeSamples): each metric is
	// scaled by the speed measured around it.
	setupCalib := []float64{calibrate(calibDur)}
	setups, err := timeSetups(ctx, c, w)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	setupCalib = append(setupCalib, calibrate(calibDur))
	logf("setup %.3fs (median of %d)", median(setups), len(setups))
	outs, sampleCalib, err := takeSamples(ctx, c, w, logf)
	if err != nil {
		return nil, err
	}
	peakMB := peakRSSMB()
	setupSpeed, sampleSpeed := hostSpeed(setupCalib), hostSpeed(sampleCalib)
	logf("host speed %.3f of nominal around the setups, %.3f around the samples", setupSpeed, sampleSpeed)

	res := &runResult{
		Workload: c.workload, Seed: c.seed, Warmup: c.warmup, Measure: c.measure, Traced: c.trace,
		EndToEnd:    endToEndDists(setups, outs, peakMB, setupSpeed, sampleSpeed),
		EndToEndRaw: endToEndDists(setups, outs, peakMB, 1, 1),
		SetupSpeed:  setupSpeed,
		SampleSpeed: sampleSpeed,
		SetupCalib:  setupCalib,
		SampleCalib: sampleCalib,
	}
	var p99, walls []float64
	for _, o := range outs {
		p99 = append(p99, percentile(o.calls, 99)*sampleSpeed)
		walls = append(walls, o.wall.Seconds())
	}
	p99Dist := newDist("us", p99)
	res.CallP99 = &p99Dist

	var tr *traceCtx
	var traced sampleOut
	if c.trace {
		if tr, traced, err = tracedSample(ctx, c, w); err != nil {
			return nil, fmt.Errorf("traced sample: %w", err)
		}
		logf("traced sample: %d specs in %.3fs", traced.specs, traced.wall.Seconds())
		outs = append(outs, traced)
	}
	res.tally(outs, w.finish(ctx))
	for _, p := range res.Problems {
		logf("check failed: %s", p)
	}

	cards, traceS := workloadCards(tr, w.specSet(), int(c.warmup+c.measure))
	res.Cards = cards
	if c.trace {
		if err := finishTrace(ctx, c, tr, w, traced, median(walls), traceS, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timeSetups times the workload's setup as its plan says and returns each
// timing (seconds per setup). Tearing the previous system down is not
// timed.
func timeSetups(ctx context.Context, c *config, w workload) ([]float64, error) {
	timings, batch := w.setupPlan()
	if c.setupReps > 0 {
		timings, batch = c.setupReps, 1
	}
	var setups []float64
	for range timings {
		runtime.GC()
		var took time.Duration
		for range batch {
			w.close()
			t0 := time.Now()
			if err := w.prepare(ctx, nil); err != nil {
				return nil, err
			}
			took += time.Since(t0)
		}
		setups = append(setups, took.Seconds()/float64(batch))
	}
	return setups, nil
}

// takeSamples takes untraced samples until the time budget is spent. Each
// starts from a collected heap, so one sample's garbage neither slows the
// next nor adds to its peak memory. After a sample, once calibEvery has
// passed since the last reading, and after the last sample, the reference
// loop reads the host's speed. A traced run keeps half the time for
// untraced samples; its traced sample follows, and the two give the
// tracing overhead.
func takeSamples(ctx context.Context, c *config, w workload, logf func(string, ...any)) ([]sampleOut, []float64, error) {
	budget := time.Duration(c.seconds * float64(time.Second))
	minSamples := 1
	if c.trace {
		budget /= 2
		minSamples = 2
	}
	var outs []sampleOut
	var calib []float64
	start := time.Now()
	lastCalib := start
	for {
		// Cold workloads build a fresh system before every later sample,
		// untimed.
		if len(outs) > 0 && w.freshPerSample() {
			if err := w.prepare(ctx, nil); err != nil {
				return nil, nil, fmt.Errorf("setup: %w", err)
			}
		}
		runtime.GC()
		out, err := w.sample(ctx, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("sample %d: %w", len(outs)+1, err)
		}
		outs = append(outs, out)
		logf("sample %d: %d specs in %.3fs, %d/%d ops failed", len(outs), out.specs, out.wall.Seconds(), out.failed, out.ops)
		done := len(outs) >= c.samples
		if c.samples == 0 {
			done = len(outs) >= minSamples && time.Since(start) >= budget
		}
		if done || time.Since(lastCalib) >= calibEvery {
			runtime.GC()
			calib = append(calib, calibrate(calibDur))
			lastCalib = time.Now()
		}
		if done {
			return outs, calib, nil
		}
	}
}

// tally counts the samples' operations and collects every problem: the
// samples' own, digests that differ between samples, and the workload's
// final checks. A wrong record anywhere makes the run's output suspect, so
// any problem fails every operation.
func (r *runResult) tally(outs []sampleOut, final []string) {
	var problems []string
	for i, o := range outs {
		r.Attempted += o.ops
		r.Failed += o.failed
		problems = append(problems, o.problems...)
		switch {
		case o.digest == "":
		case r.Digest == "":
			r.Digest = o.digest
		case o.digest != r.Digest:
			problems = append(problems, fmt.Sprintf("sample %d digest %s differs from sample 1's %s", i+1, o.digest, r.Digest))
		}
		if o.split != nil {
			r.Split = append(r.Split, o.split)
		}
	}
	problems = append(problems, final...)
	if len(problems) > 0 {
		r.Failed = r.Attempted
		r.Problems = problems
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// endToEndDists summarizes the untraced samples into the end-to-end
// catalog. Each sample contributes one value per metric; latency
// percentiles are taken within a sample over its calls. Times are
// multiplied, and rates divided, by the host speed measured around them
// (1 for raw values).
func endToEndDists(setups []float64, outs []sampleOut, peakMB, setupSpeed, speed float64) map[string]dist {
	var setup, sps, p50, p90, per []float64
	for _, s := range setups {
		setup = append(setup, s*setupSpeed)
	}
	for _, o := range outs {
		sps = append(sps, float64(o.specs)/o.wall.Seconds()/speed)
		p50 = append(p50, percentile(o.calls, 50)*speed)
		p90 = append(p90, percentile(o.calls, 90)*speed)
		per = append(per, median(o.perSpec)*speed)
	}
	return map[string]dist{
		"setup_s":           newDist("s", setup),
		"specs_per_s":       newDist("specs/s", sps),
		"call_p50_us":       newDist("us", p50),
		"call_p90_us":       newDist("us", p90),
		"batch_us_per_spec": newDist("us/spec", per),
		"peak_rss_mb":       newDist("MB", []float64{peakMB}),
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tracedSample takes one sample with every recorder on: bench spans, the
// program's own NDJSON spans and metrics, and a CPU profile.
func tracedSample(ctx context.Context, c *config, w workload) (*traceCtx, sampleOut, error) {
	tr := &traceCtx{spans: newSpanRec()}
	if w.freshPerSample() {
		tr.root = tr.spans.begin("vpbench.setup", span{})
		if err := w.prepare(ctx, tr); err != nil {
			return nil, sampleOut{}, err
		}
		tr.root.end()
	}
	dir := traceDir(c)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, sampleOut{}, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, sampleOut{}, err
	}
	defer f.Close()
	runtime.GC()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, sampleOut{}, err
	}
	tr.root = tr.spans.begin("vpbench.sample", span{})
	out, err := w.sample(ctx, tr)
	tr.root.end()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&mem1)
	if err != nil {
		return nil, sampleOut{}, err
	}
	tr.mem0, tr.mem1 = mem0, mem1
	return tr, out, f.Close()
}

func traceDir(c *config) string { return filepath.Join(c.outDir, c.workload+"-trace") }

// finishTrace turns the traced sample into per-layer metrics and writes the
// trace artifacts: bench spans, program spans, the CPU profile and its
// attribution.
func finishTrace(ctx context.Context, c *config, tr *traceCtx, w workload, traced sampleOut, untraced float64, traceS map[string]float64, res *runResult) error {
	dir := traceDir(c)
	top, topText, err := pprofTop(ctx, filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	enc, dec := codecTiming(tr, tr.layer.records)
	res.PerLayer, res.Ledger = layerMetrics(layerInput{
		cfg: c, set: w.specSet(), data: &tr.layer, wall: traced.wall, untraced: untraced,
		top: top, traceS: traceS, mem0: tr.mem0, mem1: tr.mem1, encNs: enc, decNs: dec,
	})
	spans := tr.spans.all()
	res.SelfS = selfSeconds(spans)

	var b []byte
	for _, s := range spans {
		line, _ := json.Marshal(s) // plain struct: cannot fail
		b = append(append(b, line...), '\n')
	}
	var prog []byte
	for i, ss := range tr.layer.shardSpans {
		for _, s := range ss {
			line, _ := json.Marshal(struct {
				Part int `json:"part"`
				obs.Span
			}{i, s})
			prog = append(append(prog, line...), '\n')
		}
	}
	for name, data := range map[string][]byte{
		"bench_spans.ndjson":   b,
		"program_spans.ndjson": prog,
		"pprof_top.txt":        []byte(topText),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func resultPath(dir, workload string, traced bool) string {
	if traced {
		return filepath.Join(dir, workload+"-trace.json")
	}
	return filepath.Join(dir, workload+".json")
}

// resultFile is the on-disk form of one or more workload runs.
type resultFile struct {
	Results []*runResult `json:"results"`
}

func writeResults(path string, rs []*runResult) error {
	b, err := json.MarshalIndent(resultFile{Results: rs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]*runResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Results, nil
}

// printResult writes the human-readable lines: one `workload metric value
// unit` line per metric, then the cards, the shard split and the ledger.
func printResult(w io.Writer, r *runResult) {
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if r.Traced {
		for _, d := range perLayer {
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, d.Name, num(r.PerLayer[d.Name]), d.Unit)
		}
	} else {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, d.Name, num(r.EndToEnd[d.Name].Median), d.Unit)
		}
		if r.CallP99 != nil {
			fmt.Fprintf(w, "%s call_p99_us %s us\n", r.Workload, num(r.CallP99.Median))
		}
	}
	printCards(w, r.Workload, r.Cards)
	if len(r.Split) > 0 {
		fmt.Fprintf(w, "%s shard_sims %v\n", r.Workload, r.Split[len(r.Split)-1])
	}
	if l := r.Ledger; l != nil && l.TraceS+l.WarmupS+l.MeasureS > 0 {
		verdict := "closes"
		if !l.Closes {
			verdict = "does not close"
		}
		fmt.Fprintf(w, "%s ledger: trace %.3fs + warmup %.3fs + measure %.3fs + residual %.3fs = %d workers x %.3fs wall; residual %.1f%%, %s within %.0f%%\n",
			r.Workload, l.TraceS, l.WarmupS, l.MeasureS, l.ResidualS, l.Workers, l.WallS, 100*l.ResidualFrac, verdict, 100*l.Tolerance)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%s check failed: %s\n", r.Workload, p)
	}
}

// printFinal writes the result line: the last line of standard output.
func printFinal(w io.Writer, correct bool, attempted, failed int, metrics map[string]metricValue) error {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runAll runs every workload, each in its own child process so that peak
// RSS is per workload, and collects their result files into one.
func runAll(ctx context.Context, c *config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "vpbench:", err)
		return 1
	}
	var results []*runResult
	correct := true
	attempted, failed := 0, 0
	metrics := make(map[string]metricValue)
	trace := "0"
	if c.trace {
		trace = "1"
	}
	for _, d := range workloadDefs {
		path := resultPath(c.outDir, d.name, c.trace)
		os.Remove(path) // a child that dies before writing must not leave an old result behind
		cmd := exec.CommandContext(ctx, exe,
			"-workload", d.name,
			"-seed", strconv.FormatUint(c.seed, 10),
			"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
			"-samples", strconv.Itoa(c.samples),
			"-trace", trace,
			"-out", c.outDir,
			"-fleet-port", strconv.Itoa(c.fleetPort))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		// A child whose checks failed exits 1 after writing its result; the
		// result says so.
		var exit *exec.ExitError
		if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
			fmt.Fprintf(stderr, "vpbench: %s: %v\n", d.name, err)
			return 1
		}
		rs, err := readResults(path)
		if err != nil || len(rs) != 1 {
			fmt.Fprintf(stderr, "vpbench: %s produced no result\n", d.name)
			correct = false
			continue
		}
		r := rs[0]
		results = append(results, r)
		correct = correct && r.Correct
		attempted += r.Attempted
		failed += r.Failed
		for name, v := range r.metricValues() {
			metrics[d.name+"."+name] = v
		}
	}
	name := "all"
	if c.trace {
		name = "all-trace"
	}
	if err := writeResults(filepath.Join(c.outDir, name+".json"), results); err != nil {
		fmt.Fprintln(stderr, "vpbench:", err)
		return 1
	}
	if err := printFinal(stdout, correct, attempted, failed, metrics); err != nil {
		fmt.Fprintln(stderr, "vpbench:", err)
		return 1
	}
	if !correct || len(results) != len(workloadDefs) {
		return 1
	}
	return 0
}
