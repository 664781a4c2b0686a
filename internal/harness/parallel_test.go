package harness

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/timegate"
)

// TestRunAllDeterminism runs the same spec set sequentially and with eight
// workers and requires identical Stats per spec and byte-identical rendered
// output: parallel scheduling must never change simulation results.
func TestRunAllDeterminism(t *testing.T) {
	t.Parallel()
	kernels := []string{"gzip", "art", "parser", "milc"}
	var specs []Spec
	for _, k := range kernels {
		for _, c := range []Counters{BaselineCounters, FPC} {
			specs = append(specs, matrixSpecsFor(k, singlePredictors, c)...)
		}
	}
	warmup, measure := testWindows(1_000, 4_000)
	seq := NewSession(warmup, measure)
	seq.UseWorkers(1)
	seqRes, err := seq.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	par := NewSession(warmup, measure)
	par.UseWorkers(8)
	parRes, err := par.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		if seqRes[i].Spec != spec || parRes[i].Spec != spec {
			t.Fatalf("result %d out of order: seq=%v par=%v want=%v",
				i, seqRes[i].Spec, parRes[i].Spec, spec)
		}
		if seqRes[i].Stats != parRes[i].Stats {
			t.Errorf("%v: stats differ between workers=1 and workers=8:\n%+v\n%+v",
				spec, seqRes[i].Stats, parRes[i].Stats)
		}
	}
	// The rendered artifacts must match byte for byte too: the fig4-style
	// text table over these kernels and the structured JSON emission (both
	// sessions are fully warm, so flattening adds no simulations).
	seqRecs, err := collect(context.Background(), seq, specs)
	if err != nil {
		t.Fatal(err)
	}
	parRecs, err := collect(context.Background(), par, specs)
	if err != nil {
		t.Fatal(err)
	}
	seqSrc, err := newSource(nil, specs, seqRecs)
	if err != nil {
		t.Fatal(err)
	}
	parSrc, err := newSource(nil, specs, parRecs)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	for _, c := range []Counters{BaselineCounters, FPC} {
		if err := speedupMatrixOver(seqSrc, &a, kernels, singlePredictors, c, pipeline.SquashAtCommit); err != nil {
			t.Fatal(err)
		}
		if err := speedupMatrixOver(parSrc, &b, kernels, singlePredictors, c, pipeline.SquashAtCommit); err != nil {
			t.Fatal(err)
		}
	}
	if a.String() != b.String() {
		t.Error("speedup table differs between sequential and parallel sessions")
	}
	var aj, bj bytes.Buffer
	if err := WriteJSON(&aj, seqRecs); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&bj, parRecs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj.Bytes(), bj.Bytes()) {
		t.Error("JSON emission differs between sequential and parallel sessions")
	}
}

// matrixSpecsFor is the one-kernel slice of a speedup matrix: baseline plus
// every predictor.
func matrixSpecsFor(kernel string, preds []string, c Counters) []Spec {
	out := []Spec{{Kernel: kernel, Predictor: "none"}}
	for _, p := range preds {
		out = append(out, Spec{Kernel: kernel, Predictor: p, Counters: c})
	}
	return out
}

// TestConcurrentRunSingleflight hammers one session from many goroutines
// requesting overlapping specs and asserts every spec was simulated exactly
// once (miss counting) while every request was answered. Run with -race.
func TestConcurrentRunSingleflight(t *testing.T) {
	t.Parallel()
	se := NewSession(testWindows(1_000, 4_000))
	distinct := []Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "lvp"},
		{Kernel: "gzip", Predictor: "stride", Counters: FPC},
		{Kernel: "art", Predictor: "none"},
		{Kernel: "art", Predictor: "lvp", Counters: FPC},
		{Kernel: "art", Predictor: "stride"},
	}
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range distinct {
				spec := distinct[(g+i)%len(distinct)] // rotate to force contention
				r, err := se.Run(spec)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if r.Spec != spec {
					t.Errorf("goroutine %d: got result for %v, want %v", g, r.Spec, spec)
				}
			}
		}(g)
	}
	wg.Wait()
	m := se.MemoStats()
	if m.Misses != uint64(len(distinct)) {
		t.Errorf("%d simulations started, want exactly %d (one per distinct spec)",
			m.Misses, len(distinct))
	}
	if total := m.Hits + m.Misses; total != goroutines*uint64(len(distinct)) {
		t.Errorf("memo saw %d lookups, want %d", total, goroutines*len(distinct))
	}
}

// TestRunAllErrorDeterministic: under parallel execution the reported error
// must be the first failure in spec order, not whichever finished first.
func TestRunAllErrorDeterministic(t *testing.T) {
	se := NewSession(testWindows(1_000, 4_000))
	se.UseWorkers(4)
	specs := []Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "zzz-missing", Predictor: "none"},
		{Kernel: "art", Predictor: "none"},
		{Kernel: "aaa-missing", Predictor: "none"},
	}
	_, err := se.RunAll(specs)
	if err == nil {
		t.Fatal("bad kernels accepted")
	}
	if !strings.Contains(err.Error(), "zzz-missing") {
		t.Errorf("error %q is not the first failure in spec order", err)
	}
}

// TestRunAllParallelSpeedup demonstrates the engine's purpose: on a
// multi-core runner the fig4 spec set completes measurably faster with
// workers=GOMAXPROCS than with workers=1, with identical results. The gate
// is effective parallelism — min(GOMAXPROCS, NumCPU) — not GOMAXPROCS
// alone: a raised GOMAXPROCS on a one-CPU machine still time-slices a
// single core, and asserting a speedup there would fail (or worse, pass by
// scheduler accident) without measuring anything.
//
// Inside `go test ./...` other packages build and test on the same CPUs,
// and one busy thread elsewhere is enough to hide the scaling on two CPUs.
// So the rounds are timed in alternating pairs while the CPUs are free
// (timegate.Pairs), and the test gates the ratio of the two sides' median
// round times.
func TestRunAllParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	procs := runtime.GOMAXPROCS(0)
	par := min(procs, runtime.NumCPU())
	if par < 2 {
		t.Skipf("effective parallelism is %d (GOMAXPROCS=%d, NumCPU=%d): "+
			"workers=1 and workers=N share one CPU, so their wall-clock ratio "+
			"measures scheduler noise, not parallel scaling", par, procs, runtime.NumCPU())
	}
	specs := Fig4Specs()
	var want []*Result
	round := func(workers int) time.Duration {
		se := NewSession(2_000, 8_000)
		se.UseWorkers(workers)
		t0 := time.Now()
		res, err := se.RunAll(specs)
		d := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
		}
		for i := range specs {
			if res[i].Stats != want[i].Stats {
				t.Fatalf("%v: workers=%d changed results", specs[i], workers)
			}
		}
		return d
	}

	seqD, parD, busy := timegate.Pairs(3,
		func() time.Duration { return round(1) },
		func() time.Duration { return round(procs) })
	seqMed, parMed := timegate.Median(seqD), timegate.Median(parD)
	bar := 1.15 // modest bar for 2-3 cores
	if procs >= 4 {
		bar = 1.5
	}
	if ratio := seqMed.Seconds() / parMed.Seconds(); ratio < bar {
		t.Errorf("workers=%d median round %v vs workers=1 %v (%.2fx), want >= %.2fx (%d busy CPU checks)\nworkers=1 rounds: %v\nworkers=%d rounds: %v",
			procs, parMed, seqMed, ratio, bar, busy, seqD, procs, parD)
	} else {
		t.Logf("workers=%d: %.2fx faster by median round (%v -> %v; %d busy CPU checks)", procs, ratio, seqMed, parMed, busy)
	}
}

// BenchmarkRunAllFig4 measures the fig4 spec set under one worker and under
// GOMAXPROCS workers; compare the two to see the engine's scaling.
func BenchmarkRunAllFig4(b *testing.B) {
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				se := NewSession(2_000, 8_000)
				se.UseWorkers(workers)
				if _, err := se.RunAll(Fig4Specs()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("workers=1", bench(1))
	b.Run("workers=max", bench(runtime.GOMAXPROCS(0)))
}
