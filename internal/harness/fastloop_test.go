package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/ghist"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/pipeline"
)

// fastRefCase is one FuzzFastLoopMatchesReference input in readable form.
// workload is a builtin kernel name or "gen:<family>", a generated program
// of that isa.Generate family and genSeed.
type fastRefCase struct {
	workload        string
	genSeed         uint8
	predictor       string
	fpc, reissue    bool
	width           uint8
	loadsOnly       bool
	maxHist         uint16
	fpcVec          string
	warmup, measure uint16
}

// add registers c as a seed, encoded the way decodeFastRef reads it.
func (c fastRefCase) add(f *testing.F) {
	f.Helper()
	workload := slices.Index(kernels.Names(), c.workload)
	if fam, ok := strings.CutPrefix(c.workload, "gen:"); ok {
		workload = len(kernels.Names()) + slices.Index(isa.Families(), fam)
	}
	pred := slices.Index(PredictorNames, c.predictor)
	if workload < 0 || pred < 0 {
		f.Fatalf("bad seed %+v", c)
	}
	f.Add(uint8(workload), c.genSeed, uint8(pred), c.fpc, c.reissue, c.width, c.loadsOnly,
		c.maxHist, c.fpcVec, c.warmup, c.measure)
}

// decodeFastRef maps the fuzzer's arguments onto a canonical spec, its
// program and its windows: workload indexes the builtin kernels and then
// the generator families (genSeed picks the program), predictor indexes
// PredictorNames, width is taken mod 17 and the windows are capped at
// 8k+20k. MaxHist and FPCVec pass through unchecked, for Validate to judge.
func decodeFastRef(workload, genSeed, predictor uint8, fpc, reissue bool, width uint8, loadsOnly bool,
	maxHist uint16, fpcVec string, warmup, measure uint16) (Spec, *isa.Program, uint64, uint64, error) {
	names, fams := kernels.Names(), isa.Families()
	spec := Spec{
		Predictor: PredictorNames[int(predictor)%len(PredictorNames)],
		Width:     int(width % 17),
		LoadsOnly: loadsOnly,
		MaxHist:   int(maxHist),
		FPCVec:    fpcVec,
	}
	if fpc {
		spec.Counters = FPC
	}
	if reissue {
		spec.Recovery = pipeline.SelectiveReissue
	}
	var prog *isa.Program
	if i := int(workload) % (len(names) + len(fams)); i < len(names) {
		k, _ := kernels.ByName(names[i])
		spec.Kernel, prog = names[i], k.Build()
	} else {
		var err error
		if prog, err = isa.Generate(fams[i-len(names)], uint64(genSeed)); err != nil {
			return Spec{}, nil, 0, 0, err
		}
		spec.Kernel = ProgramID(prog)
	}
	c := testWindows(uint64(warmup)%8_001, uint64(measure)%20_001)
	return spec.Canonical(), prog, c.Warmup, c.Measure, nil
}

// FuzzFastLoopMatchesReference compares the specialized simulate loop with
// the reference loop (pipeline.Sim.SetReferenceLoop) on any spec the
// harness can run: a builtin kernel or a generated program, any predictor,
// counter scheme and recovery mode, and the extended key (width,
// loads-only, VTAGE history length, an explicit FPC vector). Both loops
// must give equal Stats and equal commit streams. Specs Validate rejects
// and empty windows are skipped. Under -short the seeds run at
// testWindows-reduced windows. Locally:
//
//	go test -run='^$' -fuzz=FuzzFastLoopMatchesReference -fuzztime=30s ./internal/harness
func FuzzFastLoopMatchesReference(f *testing.F) {
	names := kernels.Names()
	// One seed per predictor family and recovery mode, spread over the
	// kernels and both counter schemes.
	for i, pred := range PredictorNames {
		for j, reissue := range []bool{false, true} {
			fastRefCase{workload: names[(2*i+j)%len(names)], predictor: pred, fpc: (i+j)%2 == 0,
				reissue: reissue, warmup: 8_000, measure: 20_000}.add(f)
		}
	}
	// One seed per extended-key field.
	fastRefCase{workload: "gzip", predictor: "vtage+stride", fpc: true, width: 3, warmup: 8_000, measure: 20_000}.add(f)
	fastRefCase{workload: "art", predictor: "stride", fpc: true, loadsOnly: true, warmup: 8_000, measure: 20_000}.add(f)
	fastRefCase{workload: "parser", predictor: "vtage", fpc: true, reissue: true, maxHist: 1024, warmup: 8_000, measure: 20_000}.add(f)
	fastRefCase{workload: "applu", predictor: "lvp", reissue: true, fpcVec: "0,1,1,2,2,3,3", warmup: 8_000, measure: 20_000}.add(f)
	// One seed per generator family.
	fastRefCase{workload: "gen:branchy", genSeed: 1, predictor: "vtage", fpc: true, warmup: 8_000, measure: 20_000}.add(f)
	fastRefCase{workload: "gen:memory", genSeed: 1, predictor: "stride", reissue: true, warmup: 8_000, measure: 20_000}.add(f)
	fastRefCase{workload: "gen:mixed", genSeed: 2, predictor: "fcm+stride", fpc: true, warmup: 8_000, measure: 20_000}.add(f)
	// The divergence the issue filter's replay rule fixed (DESIGN.md §9):
	// it shows only under selective reissue, at these windows.
	fastRefCase{workload: "applu", predictor: "gdiff", reissue: true, warmup: 8_000, measure: 20_000}.add(f)

	f.Fuzz(func(t *testing.T, workload, genSeed, predictor uint8, fpc, reissue bool, width uint8, loadsOnly bool,
		maxHist uint16, fpcVec string, warmup, measure uint16) {
		spec, prog, w, m, err := decodeFastRef(workload, genSeed, predictor, fpc, reissue, width, loadsOnly,
			maxHist, fpcVec, warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Validate() != nil || w+m == 0 {
			return
		}
		tr := emu.Trace(prog, int(w+m))
		run := func(ref bool) (pipeline.Stats, []uint64) {
			h := &ghist.History{}
			pred, err := spec.newPredictor(h)
			if err != nil {
				t.Fatalf("%s: %v", spec.Identity(), err)
			}
			sim := pipeline.New(spec.config(), tr, pred, h)
			sim.SetReferenceLoop(ref)
			var seqs []uint64
			sim.OnCommit = func(ti int) { seqs = append(seqs, uint64(ti)) }
			st, err := sim.Run(w, m)
			if err != nil {
				t.Fatalf("%s (reference loop %v): %v", spec.Identity(), ref, err)
			}
			return *st, seqs
		}
		refSt, refSeqs := run(true)
		fastSt, fastSeqs := run(false)
		at := fmt.Sprintf("%s at %d+%d", spec.Identity(), w, m)
		if fastSt != refSt {
			t.Errorf("%s: fast loop diverged from reference:\n fast %+v\n  ref %+v", at, fastSt, refSt)
		}
		if !slices.Equal(fastSeqs, refSeqs) {
			i := 0
			for i < min(len(fastSeqs), len(refSeqs)) && fastSeqs[i] == refSeqs[i] {
				i++
			}
			t.Errorf("%s: commit streams diverge at %d (lengths %d, %d)", at, i, len(fastSeqs), len(refSeqs))
		}
	})
}
