// Benchmarks: one testing.B benchmark per table and figure of the paper's
// evaluation (DESIGN.md §5). Each iteration regenerates the artifact with
// reduced simulation windows so `go test -bench=.` completes in minutes;
// cmd/experiments reproduces the same artifacts with full windows.
package repro

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/pipeline"
)

const (
	benchWarmup  = 20_000
	benchMeasure = 80_000
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := NewLocalRunner(RunnerOptions{Warmup: benchWarmup, Measure: benchMeasure, Workers: 1})
		if err := r.Experiment(context.Background(), id, ExperimentOptions{}, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Layout regenerates Table 1 (predictor layout summary).
func BenchmarkTable1Layout(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2Config regenerates Table 2 (simulator configuration).
func BenchmarkTable2Config(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3Benchmarks regenerates Table 3 (benchmark list).
func BenchmarkTable3Benchmarks(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig1BackToBack regenerates the Section 3.2 back-to-back fetch
// statistics (Fig. 1 motivation).
func BenchmarkFig1BackToBack(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig3OracleBound regenerates Fig. 3 (speedup upper bound with a
// perfect value predictor).
func BenchmarkFig3OracleBound(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4SquashAtCommit regenerates Fig. 4 (speedups of the four
// single-scheme predictors with squash-at-commit recovery, baseline
// counters vs FPC).
func BenchmarkFig4SquashAtCommit(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5SelectiveReissue regenerates Fig. 5 (same with idealized
// selective reissue).
func BenchmarkFig5SelectiveReissue(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6VTAGECoverage regenerates Fig. 6 (VTAGE speedup and coverage,
// baseline counters vs FPC).
func BenchmarkFig6VTAGECoverage(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Hybrids regenerates Fig. 7 (hybrid predictors, speedup and
// coverage).
func BenchmarkFig7Hybrids(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkAccuracy regenerates the Section 8.2 accuracy comparison.
func BenchmarkAccuracy(b *testing.B) { benchExperiment(b, "acc") }

// BenchmarkSec3RecoveryModel regenerates the Section 3.1.1 recovery cost
// model.
func BenchmarkSec3RecoveryModel(b *testing.B) { benchExperiment(b, "sec3") }

// BenchmarkSec4RegfileModel regenerates the Section 4 register file port
// cost model.
func BenchmarkSec4RegfileModel(b *testing.B) { benchExperiment(b, "sec4") }

// BenchmarkSimulatorThroughput measures raw simulation speed (µops/s) of the
// baseline machine on one kernel — the cost model for sizing experiments.
// The per-iteration cost includes session construction and trace generation;
// BenchmarkSteadyStateSimulate isolates the simulate loop itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		se := harness.NewSession(harness.SessionConfig{Warmup: benchWarmup, Measure: benchMeasure})
		if _, err := se.RunCtx(context.Background(), harness.Spec{Kernel: "gzip", Predictor: "none"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchWarmup+benchMeasure), "uops/op")
}

// Steady-state measurement windows: warm past cold caches and cold
// predictor tables, then measure fixed Advance chunks of the running
// machine.
const (
	steadyTraceUops = 1_500_000 // trace length for timing runs
	steadyWarmUops  = 30_000    // Run(steadyWarmUops, 0) before any measurement
	steadyChunk     = 10_000    // µops per timed Advance
)

// steadyPredictors are the configurations the steady-state benchmark and
// the zero-allocation gate both cover: the baseline machine, each
// single-scheme predictor of the paper's figures, and the headline hybrid.
var steadyPredictors = []string{"none", "lvp", "stride", "fcm", "vtage", "vtage+stride"}

// steadyTrace builds the prepared dynamic trace for kernel, uops long.
func steadyTrace(kernel string, uops int) (*pipeline.Prepared, error) {
	k, ok := kernels.ByName(kernel)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", kernel)
	}
	return pipeline.Prepare(emu.Trace(k.Build(), uops)), nil
}

// newWarmSim builds a simulator for the named predictor over tr and runs it
// through the warmup window, leaving it ready for timed Advance calls.
func newWarmSim(tr *pipeline.Prepared, predictor string) (*pipeline.Sim, error) {
	pred, err := harness.NewPredictor(predictor, core.FPCCommit, tr)
	if err != nil {
		return nil, err
	}
	sim := pipeline.New(pipeline.DefaultConfig(), tr, pred)
	if _, err := sim.Run(steadyWarmUops, 0); err != nil {
		return nil, err
	}
	return sim, nil
}

// newSteadySim builds and warms a simulator over a long kernel trace for
// steady-state measurement.
func newSteadySim(tb testing.TB, kernel, predictor string, traceUops int) (*pipeline.Sim, int) {
	tb.Helper()
	tr, err := steadyTrace(kernel, traceUops)
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := newWarmSim(tr, predictor)
	if err != nil {
		tb.Fatal(err)
	}
	return sim, len(tr.Trace().Uops)
}

// BenchmarkSteadyStateSimulate times the simulate loop alone — construction,
// trace generation and warmup excluded — via repeated Sim.Advance chunks.
// The ns/uop metric is the quick interactive check on the hot path; the
// benchmark of record is vpbench (pipeline.ns_per_uop.* in a traced run).
func BenchmarkSteadyStateSimulate(b *testing.B) {
	for _, predictor := range steadyPredictors {
		b.Run(predictor, func(b *testing.B) {
			sim, traceLen := newSteadySim(b, "gzip", predictor, steadyTraceUops)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sim.Stats().Committed+steadyChunk > uint64(traceLen) {
					b.StopTimer()
					sim, _ = newSteadySim(b, "gzip", predictor, steadyTraceUops)
					b.StartTimer()
				}
				if _, err := sim.Advance(steadyChunk); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/steadyChunk, "ns/uop")
		})
	}
}

// TestSteadyStateSimulateZeroAllocs is the allocation regression gate for
// the simulate loop: once the machine is warm, advancing it must not
// allocate — for the baseline machine or for any steady predictor
// configuration, on more than one kernel, and deep into the trace (late
// phases churn the predictors' per-PC speculative windows in ways the first
// hundred-k µops never do). AllocsPerRun(1, ...) is deliberate: with a
// single run its integer average cannot absorb stray allocations.
func TestSteadyStateSimulateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full warmup windows")
	}
	// Trace budget: 30k warmup + 250k pre-advance + 2×200k probe (AllocsPerRun
	// runs the closure once extra as its own warm-up) = 680k, with headroom so
	// the measured window never hits fetch-exhausted drain at the trace end.
	const (
		traceUops  = 1_000_000
		preAdvance = 250_000
		probeUops  = 200_000
	)
	for _, kernel := range []string{"gzip", "art"} {
		for _, predictor := range steadyPredictors {
			t.Run(kernel+"/"+predictor, func(t *testing.T) {
				sim, _ := newSteadySim(t, kernel, predictor, traceUops)
				// Drive deep into the trace before measuring, then measure
				// a long window so phase changes are covered.
				if _, err := sim.Advance(preAdvance); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(1, func() {
					if _, err := sim.Advance(probeUops); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 0 {
					t.Errorf("steady-state simulate loop allocates: %.0f allocs per %dk-uop advance",
						allocs, probeUops/1000)
				}
				if got := sim.Stats().Committed; got < steadyWarmUops+preAdvance+2*probeUops {
					t.Fatalf("probe ran into the trace end: only %d uops committed", got)
				}
			})
		}
	}
}

// TestSpecValidationZeroAllocs is the allocation gate for spec validation,
// which every served spec passes twice (in the client and in the daemon's
// decoder): on builtin-kernel specs neither Spec.Validate nor the daemon's
// decode-side Canonical().Validate() allocates.
func TestSpecValidationZeroAllocs(t *testing.T) {
	specs := harness.DedupSpecs(harness.Fig4Specs())
	validate := testing.AllocsPerRun(10, func() {
		for _, sp := range specs {
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
	decode := testing.AllocsPerRun(10, func() {
		for _, sp := range specs {
			if err := sp.Canonical().Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if validate != 0 || decode != 0 {
		t.Errorf("validating %d fig4 specs allocates: Spec.Validate %.0f, Canonical().Validate() %.0f allocs",
			len(specs), validate, decode)
	}
}

// TestAdvanceContinuesRun pins the Advance contract the bench layer depends
// on: committing exactly n more µops (modulo retire-width overshoot) without
// restarting the machine.
func TestAdvanceContinuesRun(t *testing.T) {
	k, _ := kernels.ByName("gzip")
	tr := emu.Trace(k.Build(), 60_000)
	sim := pipeline.New(pipeline.DefaultConfig(), pipeline.Prepare(tr), nil)
	st, err := sim.Run(5_000, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Committed
	cyclesBefore := st.Cycles
	st, err = sim.Advance(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Committed - before; got < 10_000 || got >= 10_000+uint64(pipeline.DefaultConfig().RetireWidth) {
		t.Errorf("Advance(10k) committed %d more uops", got)
	}
	if st.Cycles <= cyclesBefore {
		t.Error("Advance did not make cycle progress")
	}
	// Capped at trace end: a huge advance drains the trace and stops.
	st, err = sim.Advance(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != uint64(len(tr.Uops)) {
		t.Errorf("Advance past trace end committed %d, want %d", st.Committed, len(tr.Uops))
	}
}
