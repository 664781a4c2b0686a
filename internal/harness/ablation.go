package harness

// This file holds the ablations beyond the paper: the Section 5/7
// sensitivity arguments (confidence strength, history length, loads-only
// scope, machine width) rendered as experiments. Every sweep point is an
// extended Spec — a memoizable, schedulable value — so these experiments
// declare their whole sweep and render from its records exactly like the
// figures; nothing here simulates.

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// ablationKernels is a small representative set: a large-gain kernel, a
// context-predictable one, a drift-heavy one, and a VP-neutral one.
var ablationKernels = []string{"art", "gcc", "gobmk", "milc"}

// ablLoadsKernels is the kernel set of the loads-only ablation: large-gain,
// drift-heavy, FP, pointer-chasing, context, and memory-bound examples.
var ablLoadsKernels = []string{"art", "parser", "gamess", "vortex", "hmmer", "lbm"}

// ablWidthKernels is the kernel set of the width-sensitivity ablation.
var ablWidthKernels = []string{"art", "parser", "gamess", "gcc"}

// fpcPoint is one confidence strength in the FPC ablation.
type fpcPoint struct {
	name string
	vec  core.FPCVector
}

// fpcSweep spans deterministic 3-bit counters up to an 8-bit-equivalent FPC.
// ExpectedStreak: 7, 33, 65, 129, 257.
var fpcSweep = []fpcPoint{
	{"3-bit", core.FPCBaseline},
	{"5-bit eq", core.FPCVector{0, 2, 2, 2, 2, 3, 3}},
	{"6-bit eq", core.FPCReissue},
	{"7-bit eq", core.FPCCommit},
	{"8-bit eq", core.FPCVector{0, 5, 5, 5, 5, 6, 6}},
}

// fpcSpec is one FPC-sweep point: VTAGE under squash-at-commit with an
// explicit probability vector. Canonical() folds the 3-bit point onto the
// plain baseline-counter VTAGE spec the figures already memoize.
func fpcSpec(kernel string, vec core.FPCVector) Spec {
	return Spec{
		Kernel:    kernel,
		Predictor: "vtage",
		Recovery:  pipeline.SquashAtCommit,
		FPCVec:    FormatFPCVector(vec),
	}.Canonical()
}

// ablFPCSpecs declares the full spec set of the FPC-strength sweep.
func ablFPCSpecs() []Spec {
	var out []Spec
	for _, k := range ablationKernels {
		out = append(out, Spec{Kernel: k, Predictor: "none"})
		for _, p := range fpcSweep {
			out = append(out, fpcSpec(k, p.vec))
		}
	}
	return out
}

// runAblFPC sweeps the FPC probability vector on VTAGE under squash-at-commit
// recovery: the Section 5 trade-off between coverage (weak counters) and
// accuracy (strong counters), and the basis for the paper's suggestion of
// adapting probabilities at run time.
func runAblFPC(src *Source, w io.Writer) error {
	fmt.Fprintf(w, "VTAGE under squash-at-commit, varying confidence strength\n")
	fmt.Fprintf(w, "%-8s", "kernel")
	for _, p := range fpcSweep {
		fmt.Fprintf(w, " %22s", p.name)
	}
	fmt.Fprintf(w, "\n%-8s", "")
	for range fpcSweep {
		fmt.Fprintf(w, " %8s %6s %6s", "speedup", "cov%", "acc%")
	}
	fmt.Fprintln(w)
	for _, k := range ablationKernels {
		fmt.Fprintf(w, "%-8s", k)
		for _, p := range fpcSweep {
			r, err := src.Record(fpcSpec(k, p.vec))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %8.3f %6.1f %6.2f",
				r.Speedup, 100*r.Coverage, 100*r.Accuracy)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(stronger counters: less coverage, higher accuracy, fewer squashes)")
	return nil
}

// runExtPredictors compares the extension predictors the paper references
// but does not chart: the Per-Path Stride predictor (footnote 4: "on par
// with 2D-Str") and gDiff [27] (composable global-stride prediction).
func runExtPredictors(src *Source, w io.Writer) error {
	preds := []string{"stride", "ps", "vtage", "gdiff"}
	if err := speedupMatrix(src, w, preds, FPC, pipeline.SquashAtCommit); err != nil {
		return err
	}
	fmt.Fprintln(w, "(paper footnote 4: PS performance was on par with 2D-Str)")
	return nil
}

// maxHists are the VTAGE history lengths of the history ablation; 64 is the
// paper's pick, so its spec canonicalizes onto the figures' VTAGE entry.
var maxHists = []int{8, 64, 256}

// histSpec is one history-length point: VTAGE with FPC, squash at commit.
func histSpec(kernel string, maxHist int) Spec {
	return Spec{
		Kernel:    kernel,
		Predictor: "vtage",
		Counters:  FPC,
		Recovery:  pipeline.SquashAtCommit,
		MaxHist:   maxHist,
	}.Canonical()
}

// ablHistSpecs declares the full spec set of the history-length sweep.
func ablHistSpecs() []Spec {
	var out []Spec
	for _, k := range ablationKernels {
		out = append(out, Spec{Kernel: k, Predictor: "none"})
		for _, mh := range maxHists {
			out = append(out, histSpec(k, mh))
		}
	}
	return out
}

// runAblHist sweeps VTAGE's maximum history length: too short loses
// control-flow context, too long dilutes capacity across components and
// slows learning — the paper picked 2..64 as "a good tradeoff".
func runAblHist(src *Source, w io.Writer) error {
	fmt.Fprintf(w, "VTAGE with FPC and squash-at-commit, varying max history length\n")
	fmt.Fprintf(w, "%-8s", "kernel")
	for _, mh := range maxHists {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("max=%d", mh))
	}
	fmt.Fprintln(w, "   (speedup)")
	for _, k := range ablationKernels {
		fmt.Fprintf(w, "%-8s", k)
		for _, mh := range maxHists {
			r, err := src.Record(histSpec(k, mh))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %10.3f", r.Speedup)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// loadsSpec is the loads-only half of the scope ablation; allUopsSpec the
// paper's whole-instruction deployment.
func loadsSpec(kernel string, loadsOnly bool) Spec {
	return Spec{
		Kernel:    kernel,
		Predictor: "vtage+stride",
		Counters:  FPC,
		Recovery:  pipeline.SquashAtCommit,
		LoadsOnly: loadsOnly,
	}
}

// ablLoadsSpecs declares the full spec set of the prediction-scope ablation.
func ablLoadsSpecs() []Spec {
	var out []Spec
	for _, k := range ablLoadsKernels {
		out = append(out,
			Spec{Kernel: k, Predictor: "none"},
			loadsSpec(k, false),
			loadsSpec(k, true))
	}
	return out
}

// runAblLoads compares predicting every register-producing µop (the paper's
// deployment) with classic load-value prediction only: loads carry the
// longest latencies, but the paper's whole-instruction scope also breaks
// ALU/FP dependence chains.
func runAblLoads(src *Source, w io.Writer) error {
	fmt.Fprintf(w, "VTAGE-2DStr hybrid with FPC, squash-at-commit: all µops vs loads only\n")
	fmt.Fprintf(w, "%-10s %12s %12s\n", "kernel", "all uops", "loads only")
	for _, k := range ablLoadsKernels {
		all, err := src.Record(loadsSpec(k, false))
		if err != nil {
			return err
		}
		loads, err := src.Record(loadsSpec(k, true))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %12.3f %12.3f\n", k, all.Speedup, loads.Speedup)
	}
	fmt.Fprintln(w, "(the paper predicts every register-producing µop, §7.2)")
	return nil
}

// widthPoints are the machine widths for the width-sensitivity ablation;
// 8 is Table 2's machine, so its specs canonicalize onto the figures'.
var widthPoints = []int{4, 8}

// widthSpec is one width point: VTAGE-2DStr with FPC on a w-wide machine.
// Its speedup divides by the width-matched baseline (Spec.Baseline keeps
// Width).
func widthSpec(kernel string, width int) Spec {
	return Spec{
		Kernel:    kernel,
		Predictor: "vtage+stride",
		Counters:  FPC,
		Recovery:  pipeline.SquashAtCommit,
		Width:     width,
	}.Canonical()
}

// ablWidthSpecs declares the full spec set of the width ablation: each
// width's predictor spec plus the width-matched baseline it divides by.
func ablWidthSpecs() []Spec {
	var out []Spec
	for _, k := range ablWidthKernels {
		for _, wd := range widthPoints {
			sp := widthSpec(k, wd)
			out = append(out, sp.Baseline(), sp)
		}
	}
	return out
}

// runAblWidth shows the paper's premise — value prediction is a lever for
// wide machines: on a narrower pipeline the same predictor buys less,
// because fewer independent µops are waiting on the broken dependences.
func runAblWidth(src *Source, w io.Writer) error {
	fmt.Fprintf(w, "VTAGE-2DStr with FPC, squash-at-commit: speedup vs machine width\n")
	fmt.Fprintf(w, "%-10s", "kernel")
	for _, wd := range widthPoints {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("%d-wide", wd))
	}
	fmt.Fprintln(w)
	for _, k := range ablWidthKernels {
		fmt.Fprintf(w, "%-10s", k)
		for _, wd := range widthPoints {
			r, err := src.Record(widthSpec(k, wd))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12.3f", r.Speedup)
		}
		fmt.Fprintln(w)
	}
	return nil
}
