package harness

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// TestSpecCanonical pins the canonicalization rules: equivalent
// configurations must fold to one identity, because that identity is the
// memo key (and so the key identical in-flight runs coalesce on), and the
// Record spec.
func TestSpecCanonical(t *testing.T) {
	base := Spec{Kernel: "art", Predictor: "vtage", Counters: FPC}
	cases := []struct {
		name string
		in   Spec
		want Spec
	}{
		{"plain specs are fixed points", base, base},
		{"default width folds to zero",
			Spec{Kernel: "art", Predictor: "vtage", Counters: FPC, Width: 8}, base},
		{"non-default width survives",
			Spec{Kernel: "art", Predictor: "vtage", Counters: FPC, Width: 4},
			Spec{Kernel: "art", Predictor: "vtage", Counters: FPC, Width: 4}},
		{"default max hist folds to zero",
			Spec{Kernel: "art", Predictor: "vtage", Counters: FPC, MaxHist: 64}, base},
		{"vector equal to the derived scheme folds away",
			Spec{Kernel: "art", Predictor: "vtage", Counters: FPC, FPCVec: FormatFPCVector(core.FPCCommit)},
			base},
		{"vector matching a named scheme folds onto it",
			Spec{Kernel: "art", Predictor: "vtage", FPCVec: FormatFPCVector(core.FPCCommit)},
			base},
		{"reissue vector folds onto FPC under reissue recovery",
			Spec{Kernel: "art", Predictor: "vtage", Recovery: pipeline.SelectiveReissue,
				FPCVec: FormatFPCVector(core.FPCReissue)},
			Spec{Kernel: "art", Predictor: "vtage", Counters: FPC, Recovery: pipeline.SelectiveReissue}},
		{"explicit vector zeroes counters and re-renders canonically",
			Spec{Kernel: "art", Predictor: "vtage", Counters: FPC, FPCVec: "0, 2,2,2,2,3,3"},
			Spec{Kernel: "art", Predictor: "vtage", FPCVec: "0,2,2,2,2,3,3"}},
		{"baseline machines shed predictor-only fields but keep width",
			Spec{Kernel: "art", Predictor: "none", Counters: FPC, LoadsOnly: true, MaxHist: 8,
				FPCVec: "0,2,2,2,2,3,3", Width: 4},
			Spec{Kernel: "art", Predictor: "none", Width: 4}},
	}
	for _, tc := range cases {
		if got := tc.in.Canonical(); got != tc.want {
			t.Errorf("%s: Canonical(%+v) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
	// The 3-bit FPC sweep point is the plain baseline-counter VTAGE spec.
	if got := fpcSpec("art", core.FPCBaseline); got != (Spec{Kernel: "art", Predictor: "vtage", Recovery: pipeline.SquashAtCommit}) {
		t.Errorf("3-bit fpcSpec did not fold onto the named config: %+v", got)
	}
	// The paper-default history point is the figures' VTAGE spec.
	if got := histSpec("art", 64); got != (Spec{Kernel: "art", Predictor: "vtage", Counters: FPC, Recovery: pipeline.SquashAtCommit}) {
		t.Errorf("max-hist=64 histSpec did not fold onto the named config: %+v", got)
	}
}

// TestFPCVectorRoundTrip: Format and Parse are inverses, and Parse rejects
// malformed vectors.
func TestFPCVectorRoundTrip(t *testing.T) {
	for _, v := range []core.FPCVector{core.FPCBaseline, core.FPCReissue, core.FPCCommit, {0, 5, 5, 5, 5, 6, 6}} {
		got, err := ParseFPCVector(FormatFPCVector(v))
		if err != nil || got != v {
			t.Errorf("round trip of %v: got %v, err %v", v, got, err)
		}
	}
	for _, bad := range []string{"", "1,2,3", "0,2,2,2,2,3,3,4", "0,2,2,2,2,3,x", "0,2,2,2,2,3,99"} {
		if _, err := ParseFPCVector(bad); err == nil {
			t.Errorf("ParseFPCVector(%q) accepted", bad)
		}
	}
}

// TestSpecValidate covers the constructible-configuration checks the
// service layer rejects wire specs with.
func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{Kernel: "art", Predictor: "vtage", Width: 4},
		{Kernel: "art", Predictor: "vtage", MaxHist: 256},
		{Kernel: "art", Predictor: "vtage+stride", MaxHist: 8},
		{Kernel: "art", Predictor: "lvp", FPCVec: "0,2,2,2,2,3,3"},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	bad := []Spec{
		{Kernel: "nope", Predictor: "vtage"},
		{Kernel: "art", Predictor: "nope"},
		{Kernel: "art", Predictor: "vtage", Width: 99},
		{Kernel: "art", Predictor: "vtage", Width: -1},
		{Kernel: "art", Predictor: "lvp", MaxHist: 256},    // not vtage-family
		{Kernel: "art", Predictor: "vtage", MaxHist: 1},    // below MinHist
		{Kernel: "art", Predictor: "vtage", MaxHist: 4096}, // above cap
		{Kernel: "art", Predictor: "vtage", FPCVec: "1,2"},
		{Kernel: "art", Predictor: "lvp", Counters: 2},  // neither baseline nor FPC
		{Kernel: "art", Predictor: "lvp", Counters: -1}, // neither baseline nor FPC
		{Kernel: "art", Predictor: "lvp", Recovery: 2},  // neither squash nor reissue
		{Kernel: "art", Predictor: "lvp", Recovery: -1}, // neither squash nor reissue
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", s)
		}
	}
	// RunCtx surfaces the same errors (memoized like any other failure).
	// Note MaxHist=64 would canonicalize to the default and pass; 256 cannot.
	se := NewSession(SessionConfig{Warmup: 100, Measure: 400})
	if _, err := se.RunCtx(context.Background(), Spec{Kernel: "art", Predictor: "lvp", MaxHist: 256}); err == nil {
		t.Error("RunCtx accepted max_hist on a non-vtage predictor")
	}
}

// TestMaxHistOnlyWhereTheConstructorReadsIt: the predictor table's
// readsMaxHist flag is the one list of who reads max_hist. Validate accepts
// MaxHist 8 on exactly the flagged entries, and on each flagged entry the
// override reaches the constructor: gobmk's record at max_hist 8 differs
// from its default-history record in more than the echoed key.
func TestMaxHistOnlyWhereTheConstructorReadsIt(t *testing.T) {
	t.Parallel()
	se := NewSession(SessionConfig{Warmup: 1_000, Measure: 4_000})
	flagged := 0
	for _, p := range predictors {
		spec := Spec{Kernel: "gobmk", Predictor: p.name, Counters: FPC, MaxHist: 8}
		if err := spec.Validate(); (err == nil) != p.readsMaxHist {
			t.Errorf("%s (readsMaxHist %v): Validate with max_hist 8 = %v", p.name, p.readsMaxHist, err)
		}
		if !p.readsMaxHist {
			continue
		}
		flagged++
		def := spec
		def.MaxHist = 0
		recs, err := collect(context.Background(), se, []Spec{spec, def})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		short := recs[0]
		short.MaxHist = recs[1].MaxHist
		if short == recs[1] {
			t.Errorf("%s: max_hist 8 gave the default-history record; the constructor ignores it", p.name)
		}
	}
	if flagged == 0 {
		t.Fatal("no predictor reads max_hist; the check proves nothing")
	}
}

// TestExtendedSpecsSimulate runs one spec from each extension axis through
// the ordinary memoized path and checks the results are real and respond to
// the knob.
func TestExtendedSpecsSimulate(t *testing.T) {
	t.Parallel()
	se := NewSession(testWindows(2_000, 10_000))
	ctx := context.Background()

	// Width: the knob must reach the machine (different cycle counts) and
	// still produce a real run. (IPC ordering is asserted only at full
	// windows by the abl-width shape; tiny -short windows are too noisy.)
	wide, err := se.RunCtx(ctx, Spec{Kernel: "art", Predictor: "none"})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := se.RunCtx(ctx, Spec{Kernel: "art", Predictor: "none", Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Stats.IPC() <= 0 || narrow.Stats == wide.Stats {
		t.Errorf("4-wide run indistinguishable from 8-wide: IPC %.3f vs %.3f",
			narrow.Stats.IPC(), wide.Stats.IPC())
	}
	// Speedup of a width spec divides by the width-matched baseline.
	if _, err := collect(ctx, se, []Spec{{Kernel: "art", Predictor: "vtage", Counters: FPC, Width: 4}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := se.memo[Spec{Kernel: "art", Predictor: "none", Width: 4}]; !ok {
		t.Error("width-matched baseline missing from the memo after Records")
	}

	// LoadsOnly: restricting scope must reduce eligibility.
	all, err := se.RunCtx(ctx, Spec{Kernel: "parser", Predictor: "lvp"})
	if err != nil {
		t.Fatal(err)
	}
	loads, err := se.RunCtx(ctx, Spec{Kernel: "parser", Predictor: "lvp", LoadsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if loads.Stats.Eligible == 0 || loads.Stats.Eligible >= all.Stats.Eligible {
		t.Errorf("loads-only eligible %d, all-uops %d: want 0 < loads-only < all",
			loads.Stats.Eligible, all.Stats.Eligible)
	}

	// MaxHist and FPCVec: the overrides construct and run.
	if _, err := se.RunCtx(ctx, Spec{Kernel: "gzip", Predictor: "vtage", Counters: FPC, MaxHist: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := se.RunCtx(ctx, Spec{Kernel: "gzip", Predictor: "vtage+stride", MaxHist: 256}); err != nil {
		t.Fatal(err)
	}
	if _, err := se.RunCtx(ctx, Spec{Kernel: "gzip", Predictor: "vtage", FPCVec: "0,5,5,5,5,6,6"}); err != nil {
		t.Fatal(err)
	}

	// Equivalent spellings share one memo entry: the default-width spec and
	// the explicit-8-wide spec must not double-simulate.
	missesBefore := se.MemoStats().Misses
	if _, err := se.RunCtx(ctx, Spec{Kernel: "art", Predictor: "none", Width: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := se.RunCtx(ctx, Spec{Kernel: "gzip", Predictor: "vtage", Counters: FPC, MaxHist: 64}); err != nil {
		t.Fatal(err)
	}
	if missesAfter := se.MemoStats().Misses; missesAfter != missesBefore+1 {
		t.Errorf("equivalent spellings re-simulated: misses %d -> %d (want +1: only the MaxHist=64 FPC spec is new)",
			missesBefore, missesAfter)
	}
}

// TestExperimentsRenderFromDeclaredRecords pins DESIGN.md §5.2's "rendering
// is a pure read" by construction. Every experiment renders from a Source
// holding exactly the records of its declared spec set, so nothing can
// simulate, and a spec-bearing experiment's text matches a render on the
// session that ran them (render). Dropping any one declared record either
// leaves the text byte-identical (the renderer never reads it) or fails the
// render with the out-of-set error, never a different table; and every
// spec-bearing experiment reads at least one.
func TestExperimentsRenderFromDeclaredRecords(t *testing.T) {
	t.Parallel()
	se := NewSession(testWindows(500, 2_000))
	ctx := context.Background()
	for _, e := range Experiments() {
		if e.Specs == nil {
			if err := RenderRecords(e, "text", nil, io.Discard); err != nil {
				t.Errorf("%s: spec-less render: %v", e.ID, err)
			}
			continue
		}
		specs := e.Specs()
		recs, err := collect(ctx, se, specs)
		if err != nil {
			t.Fatalf("%s: records: %v", e.ID, err)
		}
		var want, got strings.Builder
		if err := render(ctx, se, e, "text", &want); err != nil {
			t.Fatalf("%s: render: %v", e.ID, err)
		}
		if err := RenderRecords(e, "text", recs, &got); err != nil {
			t.Fatalf("%s: render from records alone: %v", e.ID, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: render from records alone differs from the session render", e.ID)
		}

		full, err := newSource(specs, recs)
		if err != nil {
			t.Fatal(err)
		}
		read := 0
		for _, drop := range DedupSpecs(specs) {
			src := &Source{recs: make(map[Spec]Record, len(full.recs))}
			for sp, r := range full.recs {
				if sp != drop.Canonical() {
					src.recs[sp] = r
				}
			}
			var sb strings.Builder
			err := e.Run(src, &sb)
			switch {
			case err == nil && sb.String() != want.String():
				t.Errorf("%s: without %s the render changed instead of failing", e.ID, drop.Identity())
			case err != nil && !strings.Contains(err.Error(), "outside the experiment's declared spec set"):
				t.Errorf("%s: without %s: %v, want the out-of-set error", e.ID, drop.Identity(), err)
			case err != nil:
				read++
			}
		}
		if read == 0 {
			t.Errorf("%s: no declared record is read by its renderer", e.ID)
		}
	}
}

// TestAccFilterAdmitsEveryUsedOver100 pins acc's worst-accuracy eligibility
// rule against the simulator's own used-prediction count over the acc spec
// set: coverage × committed µops bounds Stats.Used from above, so every spec
// with more than 100 used predictions is admitted (the footer can report a
// worse worst case than a used-count rule, never hide one).
func TestAccFilterAdmitsEveryUsedOver100(t *testing.T) {
	t.Parallel()
	se := NewSession(testWindows(2_000, 8_000))
	specs := accSpecs()
	ctx := context.Background()
	recs, err := collect(ctx, se, specs)
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for i, spec := range specs {
		res, err := se.RunCtx(ctx, spec) // a memo hit: Records ran every spec
		if err != nil {
			t.Fatal(err)
		}
		used := float64(res.Stats.Used)
		if bound := recs[i].Coverage * float64(recs[i].Committed); bound < used*(1-1e-12) {
			t.Errorf("%s: coverage × committed = %.3f below the used count %d", specs[i].Identity(), bound, res.Stats.Used)
		}
		if res.Stats.Used > 100 {
			admitted++
			if !usedOver100(recs[i]) {
				t.Errorf("%s: %d used predictions, but the acc filter drops it", specs[i].Identity(), res.Stats.Used)
			}
		}
	}
	if admitted == 0 {
		t.Error("no acc spec used more than 100 predictions; the check proves nothing")
	}
}

// TestRenderCancelled: a dead context aborts a render with the context error,
// in both the text and structured paths.
func TestRenderCancelled(t *testing.T) {
	se := NewSession(testWindows(1_000, 4_000))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, _ := ExperimentByID("abl-hist")
	for _, format := range []string{"text", "json"} {
		var sb strings.Builder
		err := render(ctx, se, e, format, &sb)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s render under a dead context returned %v, want context.Canceled", format, err)
		}
	}
}
