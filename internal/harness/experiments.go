package harness

import (
	"fmt"
	"io"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/pipeline"
	"repro/internal/regfile"
)

// Experiment regenerates one table or figure of the paper. Specs, when
// non-nil, declares every simulation the renderer reads (ablation sweeps
// included — every sweep point is an extended Spec), so any backend can run
// the whole set through its own batch path before rendering. Run is then a
// pure read: it renders from the records of exactly that set (Source), and
// reading a spec outside it is an error. Static tables declare nothing and
// read nothing.
type Experiment struct {
	ID    string
	Title string
	Specs func() []Spec
	Run   func(src *Source, w io.Writer) error
}

// ExperimentInfo is one row of the experiment index: id plus the paper
// artifact it regenerates.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// Index returns the experiment index in DESIGN.md §5 order — the one every
// backend answers, since every backend renders on the client.
func Index() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range Experiments() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	return out
}

// Source is what an experiment renders from: the records of its declared
// spec set keyed by canonical spec.
type Source struct {
	recs map[Spec]Record
}

// newSource keys recs — the records of specs, in the same order, as
// Session.Records or any Runner's Batch delivers them — by canonical spec.
func newSource(specs []Spec, recs []Record) (*Source, error) {
	if len(recs) != len(specs) {
		return nil, fmt.Errorf("harness: %d records for %d declared specs", len(recs), len(specs))
	}
	src := &Source{recs: make(map[Spec]Record, len(specs))}
	for i, sp := range specs {
		src.recs[sp.Canonical()] = recs[i]
	}
	return src, nil
}

// Record returns spec's declared record. A spec outside the declared set is
// an error, so rendering is a pure read of what Specs declared by
// construction.
func (src *Source) Record(spec Spec) (Record, error) {
	r, ok := src.recs[spec.Canonical()]
	if !ok {
		return Record{}, fmt.Errorf("harness: %s is outside the experiment's declared spec set", spec.Identity())
	}
	return r, nil
}

// Experiments returns every experiment in DESIGN.md §5 order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: predictor layout summary", nil, runTable1},
		{"table2", "Table 2: simulator configuration", nil, runTable2},
		{"table3", "Table 3: benchmarks (synthetic equivalents)", nil, runTable3},
		{"fig1", "Fig. 1 motivation: back-to-back VP-eligible fetches", fig1Specs, runFig1},
		{"fig3", "Fig. 3: speedup upper bound with a perfect predictor", fig3Specs, runFig3},
		{"fig4", "Fig. 4: speedup, squash at commit (a: baseline counters, b: FPC)", Fig4Specs, runFig4},
		{"fig5", "Fig. 5: speedup, selective reissue (a: baseline counters, b: FPC)", fig5Specs, runFig5},
		{"fig6", "Fig. 6: VTAGE speedup and coverage, baseline vs FPC", fig6Specs, runFig6},
		{"fig7", "Fig. 7: hybrid predictors, speedup and coverage (FPC, squash)", fig7Specs, runFig7},
		{"acc", "Accuracy: baseline counters vs FPC (Section 8.2)", accSpecs, runAccuracy},
		{"sec3", "Section 3.1.1: recovery cost model", nil, runSec3},
		{"sec4", "Section 4: register file port cost model", nil, runSec4},
		{"abl-fpc", "Ablation (beyond the paper): FPC vector strength sweep", ablFPCSpecs, runAblFPC},
		{"abl-hist", "Ablation (beyond the paper): VTAGE max history length", ablHistSpecs, runAblHist},
		{"ext-pred", "Extension predictors (paper refs): PS and gDiff vs 2D-Str and VTAGE", extPredSpecs, runExtPredictors},
		{"abl-loads", "Ablation (beyond the paper): all-uop VP vs loads-only VP", ablLoadsSpecs, runAblLoads},
		{"abl-width", "Ablation (beyond the paper): VP gain vs machine width", ablWidthSpecs, runAblWidth},
	}
}

// matrixSpecs declares the spec set of one speedup matrix: every kernel
// under every predictor, plus the per-kernel baselines the speedups divide
// by. Duplicates across matrices are deduplicated by the session memo.
func matrixSpecs(preds []string, c Counters, rec pipeline.RecoveryMode) []Spec {
	var out []Spec
	for _, k := range KernelNames() {
		out = append(out, Spec{Kernel: k, Predictor: "none", Recovery: rec})
		for _, p := range preds {
			out = append(out, Spec{Kernel: k, Predictor: p, Counters: c, Recovery: rec})
		}
	}
	return out
}

func fig1Specs() []Spec {
	return matrixSpecs(nil, BaselineCounters, pipeline.SquashAtCommit)
}

func fig3Specs() []Spec {
	return matrixSpecs([]string{"oracle"}, BaselineCounters, pipeline.SquashAtCommit)
}

// Fig4Specs is exported as the canonical mid-size batch for parallel-scaling
// tests and benchmarks: 19 kernels x (4 predictors x 2 counter schemes +
// baseline).
func Fig4Specs() []Spec {
	out := matrixSpecs(singlePredictors, BaselineCounters, pipeline.SquashAtCommit)
	return append(out, matrixSpecs(singlePredictors, FPC, pipeline.SquashAtCommit)...)
}

func fig5Specs() []Spec {
	out := matrixSpecs(singlePredictors, BaselineCounters, pipeline.SelectiveReissue)
	return append(out, matrixSpecs(singlePredictors, FPC, pipeline.SelectiveReissue)...)
}

func fig6Specs() []Spec {
	var out []Spec
	for _, k := range KernelNames() {
		out = append(out,
			Spec{Kernel: k, Predictor: "none"},
			Spec{Kernel: k, Predictor: "vtage", Counters: BaselineCounters},
			Spec{Kernel: k, Predictor: "vtage", Counters: FPC})
	}
	return out
}

func fig7Specs() []Spec {
	return matrixSpecs(hybridPredictors, FPC, pipeline.SquashAtCommit)
}

func accSpecs() []Spec {
	var out []Spec
	for _, k := range KernelNames() {
		for _, p := range singlePredictors {
			out = append(out,
				Spec{Kernel: k, Predictor: p, Counters: BaselineCounters},
				Spec{Kernel: k, Predictor: p, Counters: FPC})
		}
	}
	return out
}

func extPredSpecs() []Spec {
	return matrixSpecs([]string{"stride", "ps", "vtage", "gdiff"}, FPC, pipeline.SquashAtCommit)
}

// ExperimentByID returns the named experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func runTable1(src *Source, w io.Writer) error {
	_, err := io.WriteString(w, core.FormatTable1())
	return err
}

func runTable2(src *Source, w io.Writer) error {
	_, err := io.WriteString(w, pipeline.DefaultConfig().FormatTable2())
	return err
}

func runTable3(src *Source, w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-22s %s\n", "Kernel", "Stands in for", "Class")
	for _, k := range kernels.All() {
		class := "INT"
		if k.FP {
			class = "FP"
		}
		fmt.Fprintf(w, "%-10s %-22s %s\n", k.Name, k.Paper, class)
	}
	return nil
}

func runFig1(src *Source, w io.Writer) error {
	fmt.Fprintf(w, "%-10s %10s\n", "kernel", "b2b frac")
	var fracs []float64
	for _, k := range KernelNames() {
		r, err := src.Record(Spec{Kernel: k, Predictor: "none"})
		if err != nil {
			return err
		}
		f := r.B2BFraction
		fracs = append(fracs, f)
		fmt.Fprintf(w, "%-10s %9.1f%%\n", k, 100*f)
	}
	fmt.Fprintf(w, "%-10s %9.1f%%\n", "amean", 100*AMean(fracs))
	fmt.Fprintf(w, "%-10s %9.1f%%\n", "max", 100*Max(fracs))
	fmt.Fprintf(w, "(paper: 3.4%% amean, 15.3%% max on SPEC)\n")
	return nil
}

func runFig3(src *Source, w io.Writer) error {
	fmt.Fprintf(w, "%-10s %8s\n", "kernel", "speedup")
	var sp []float64
	for _, k := range KernelNames() {
		r, err := src.Record(Spec{Kernel: k, Predictor: "oracle"})
		if err != nil {
			return err
		}
		sp = append(sp, r.Speedup)
		fmt.Fprintf(w, "%-10s %8.2f\n", k, r.Speedup)
	}
	fmt.Fprintf(w, "%-10s %8.2f\n", "amean", AMean(sp))
	fmt.Fprintf(w, "%-10s %8.2f\n", "max", Max(sp))
	fmt.Fprintf(w, "(paper: up to 3.3x with an oracle predictor)\n")
	return nil
}

// speedupMatrix renders one speedup table over every kernel.
func speedupMatrix(src *Source, w io.Writer, preds []string, c Counters, rec pipeline.RecoveryMode) error {
	return speedupMatrixOver(src, w, KernelNames(), preds, c, rec)
}

// speedupMatrixOver renders one speedup table: kernels x predictors.
func speedupMatrixOver(src *Source, w io.Writer, kernels, preds []string, c Counters, rec pipeline.RecoveryMode) error {
	fmt.Fprintf(w, "%-10s", "kernel")
	for _, p := range preds {
		fmt.Fprintf(w, " %12s", DisplayName(p))
	}
	fmt.Fprintln(w)
	means := make([]float64, len(preds))
	for _, k := range kernels {
		fmt.Fprintf(w, "%-10s", k)
		for i, p := range preds {
			r, err := src.Record(Spec{Kernel: k, Predictor: p, Counters: c, Recovery: rec})
			if err != nil {
				return err
			}
			means[i] += r.Speedup
			fmt.Fprintf(w, " %12.3f", r.Speedup)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "amean")
	for i := range preds {
		fmt.Fprintf(w, " %12.3f", means[i]/float64(len(kernels)))
	}
	fmt.Fprintln(w)
	return nil
}

var singlePredictors = []string{"lvp", "stride", "fcm", "vtage"}

func runFig4(src *Source, w io.Writer) error {
	fmt.Fprintln(w, "(a) baseline 3-bit counters, squash at commit")
	if err := speedupMatrix(src, w, singlePredictors, BaselineCounters, pipeline.SquashAtCommit); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n(b) FPC, squash at commit")
	return speedupMatrix(src, w, singlePredictors, FPC, pipeline.SquashAtCommit)
}

func runFig5(src *Source, w io.Writer) error {
	fmt.Fprintln(w, "(a) baseline 3-bit counters, selective reissue")
	if err := speedupMatrix(src, w, singlePredictors, BaselineCounters, pipeline.SelectiveReissue); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n(b) FPC, selective reissue")
	return speedupMatrix(src, w, singlePredictors, FPC, pipeline.SelectiveReissue)
}

func runFig6(src *Source, w io.Writer) error {
	fmt.Fprintf(w, "%-10s %14s %10s %14s %10s\n",
		"kernel", "speedup(base)", "cov(base)", "speedup(FPC)", "cov(FPC)")
	for _, k := range KernelNames() {
		rb, err := src.Record(Spec{Kernel: k, Predictor: "vtage", Counters: BaselineCounters})
		if err != nil {
			return err
		}
		rf, err := src.Record(Spec{Kernel: k, Predictor: "vtage", Counters: FPC})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %14.3f %9.1f%% %14.3f %9.1f%%\n",
			k, rb.Speedup, 100*rb.Coverage, rf.Speedup, 100*rf.Coverage)
	}
	return nil
}

var hybridPredictors = []string{"stride", "fcm", "vtage", "fcm+stride", "vtage+stride"}

func runFig7(src *Source, w io.Writer) error {
	fmt.Fprintln(w, "(a) speedup (FPC, squash at commit)")
	if err := speedupMatrix(src, w, hybridPredictors, FPC, pipeline.SquashAtCommit); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n(b) coverage")
	fmt.Fprintf(w, "%-10s", "kernel")
	for _, p := range hybridPredictors {
		fmt.Fprintf(w, " %12s", DisplayName(p))
	}
	fmt.Fprintln(w)
	for _, k := range KernelNames() {
		fmt.Fprintf(w, "%-10s", k)
		for _, p := range hybridPredictors {
			r, err := src.Record(Spec{Kernel: k, Predictor: p, Counters: FPC})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %11.1f%%", 100*r.Coverage)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// usedOver100 is acc's eligibility rule for the worst-accuracy footer: a
// spec counts once it consumed more than 100 predictions. Record carries no
// used count, so the rule reads coverage × committed µops, which bounds the
// used count from above (eligible µops never outnumber committed ones): it
// admits every spec a used-count rule would, and can only report a worse
// worst case, never hide one (DESIGN.md §4).
func usedOver100(r Record) bool { return r.Coverage*float64(r.Committed) > 100 }

func runAccuracy(src *Source, w io.Writer) error {
	fmt.Fprintf(w, "%-10s", "kernel")
	for _, p := range singlePredictors {
		fmt.Fprintf(w, " %10s(b) %10s(F)", DisplayName(p), DisplayName(p))
	}
	fmt.Fprintln(w)
	worstBase, worstFPC := 1.0, 1.0
	for _, k := range KernelNames() {
		fmt.Fprintf(w, "%-10s", k)
		for _, p := range singlePredictors {
			rb, err := src.Record(Spec{Kernel: k, Predictor: p, Counters: BaselineCounters})
			if err != nil {
				return err
			}
			rf, err := src.Record(Spec{Kernel: k, Predictor: p, Counters: FPC})
			if err != nil {
				return err
			}
			ab, af := rb.Accuracy, rf.Accuracy
			if usedOver100(rb) && ab < worstBase {
				worstBase = ab
			}
			if usedOver100(rf) && af < worstFPC {
				worstFPC = af
			}
			fmt.Fprintf(w, " %12.4f %12.4f", ab, af)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "worst accuracy: baseline=%.4f FPC=%.4f (paper: baseline 0.94..1.0, FPC > 0.997)\n",
		worstBase, worstFPC)
	return nil
}

func runSec3(src *Source, w io.Writer) error {
	fmt.Fprintf(w, "Recovery cost model, cycles gained per kilo-instruction (Trecov = Pvalue x Nmisp)\n")
	fmt.Fprintf(w, "%-22s %8s %28s %30s\n", "mechanism", "penalty",
		"ex.1: 40% cov, 95% acc", "ex.2: 30% cov, 99.75% acc")
	for _, sc := range analytic.PaperScenarios() {
		fmt.Fprintf(w, "%-22s %8.0f %28.0f %30.0f\n",
			sc.Name, sc.Penalty, analytic.Example1(sc.Penalty), analytic.Example2(sc.Penalty))
	}
	fmt.Fprintf(w, "(paper: +64/-86/-286 then +88/+83/+76)\n")
	return nil
}

func runSec4(src *Source, w io.Writer) error {
	fmt.Fprintf(w, "Register file area model (Zyuban-Kogge, area ~ (R+W)(R+2W)), issue width W=8\n")
	fmt.Fprintf(w, "%-30s %6s %6s %10s\n", "design", "R", "W", "area (W^2)")
	for _, sc := range regfile.Section4Scenarios(8) {
		fmt.Fprintf(w, "%-30s %6d %6d %10.1f\n", sc.Name, sc.ReadPorts, sc.WritePorts, sc.AreaUnits)
	}
	fmt.Fprintf(w, "(paper: 12W^2 baseline, 24W^2 naive VP, 35W^2/2 with W/2 buffered ports)\n")
	return nil
}

// CheckFormat reports whether e renders in format: text always, json and
// csv (the structured Record layer) only from a declared spec set. Backends
// call it before running any spec, so a bad request fails before work.
func CheckFormat(e Experiment, format string) error {
	switch format {
	case "", "text":
		return nil
	case "json", "csv":
		if e.Specs == nil {
			return fmt.Errorf("%s: no structured results (text-only experiment)", e.ID)
		}
		return nil
	}
	return fmt.Errorf("harness: unknown format %q (have text, json, csv)", format)
}

// RenderRecords writes e to w in format from recs, the records of e.Specs()
// in declared order however the backend produced them: "text" (the
// paper-style table, rendered from a Source over recs), "json" or "csv". It
// is the one render path of every backend.
func RenderRecords(e Experiment, format string, recs []Record, w io.Writer) error {
	if err := CheckFormat(e, format); err != nil {
		return err
	}
	switch format {
	case "json":
		return WriteJSON(w, recs)
	case "csv":
		return WriteCSV(w, recs)
	}
	var specs []Spec
	if e.Specs != nil {
		specs = e.Specs()
	}
	src, err := newSource(specs, recs)
	if err == nil {
		err = e.Run(src, w)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	return nil
}
