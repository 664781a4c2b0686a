package harness

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// Record is the flattened, machine-readable form of one simulation result.
// Field names (JSON keys and CSV headers) are stable; downstream tooling may
// depend on them. Committed and Cycles cover the measurement window only.
// The extended spec-key fields report the canonical spec: zero values mean
// the paper's default (8-wide machine, 64-entry VTAGE history, all-µop
// scope); Counters reads "custom" when an explicit FPCVector replaces the
// named scheme.
type Record struct {
	Kernel         string  `json:"kernel"`
	Predictor      string  `json:"predictor"`
	Counters       string  `json:"counters"`
	Recovery       string  `json:"recovery"`
	Width          int     `json:"width"`
	LoadsOnly      bool    `json:"loads_only"`
	MaxHist        int     `json:"max_hist"`
	FPCVector      string  `json:"fpc_vector"`
	IPC            float64 `json:"ipc"`
	Speedup        float64 `json:"speedup"`
	Coverage       float64 `json:"coverage"`
	Accuracy       float64 `json:"accuracy"`
	Committed      uint64  `json:"committed"`
	Cycles         int64   `json:"cycles"`
	SquashValue    uint64  `json:"squash_value"`
	SquashBranch   uint64  `json:"squash_branch"`
	SquashMemOrder uint64  `json:"squash_memorder"`
	ReissuedUops   uint64  `json:"reissued_uops"`
	BranchMPKI     float64 `json:"branch_mpki"`
	B2BFraction    float64 `json:"b2b_fraction"`
}

// csvHeader must stay in sync with Record's JSON tags; emit_test.go pins it.
var csvHeader = []string{
	"kernel", "predictor", "counters", "recovery",
	"width", "loads_only", "max_hist", "fpc_vector",
	"ipc", "speedup", "coverage", "accuracy",
	"committed", "cycles",
	"squash_value", "squash_branch", "squash_memorder", "reissued_uops",
	"branch_mpki", "b2b_fraction",
}

// Record flattens r into the machine-readable form, computing speedup
// against the memoized no-VP baseline (running it if absent). The baseline
// machine's own speedup is 1 by definition.
func (se *Session) Record(r *Result) (Record, error) {
	sp := 1.0
	if r.Spec.Predictor != "none" {
		var err error
		sp, err = se.Speedup(r.Spec)
		if err != nil {
			return Record{}, err
		}
	}
	counters := r.Spec.Counters.String()
	if r.Spec.FPCVec != "" {
		counters = "custom"
	}
	st := r.Stats
	return Record{
		Kernel:         r.Spec.Kernel,
		Predictor:      r.Spec.Predictor,
		Counters:       counters,
		Recovery:       r.Spec.Recovery.String(),
		Width:          r.Spec.Width,
		LoadsOnly:      r.Spec.LoadsOnly,
		MaxHist:        r.Spec.MaxHist,
		FPCVector:      r.Spec.FPCVec,
		IPC:            st.IPC(),
		Speedup:        sp,
		Coverage:       st.Coverage(),
		Accuracy:       st.Accuracy(),
		Committed:      st.MeasuredCommitted(),
		Cycles:         st.MeasuredCycles(),
		SquashValue:    st.SquashValue,
		SquashBranch:   st.SquashBranch,
		SquashMemOrder: st.SquashMemOrder,
		ReissuedUops:   st.ReissuedUops,
		BranchMPKI:     st.BranchMPKI(),
		B2BFraction:    st.B2BFraction(),
	}, nil
}

// RecordCtx simulates one spec (memoized) plus the baseline its speedup
// needs and flattens the result — the single-spec form of RecordsCtx, shared
// by the facade's runners. Both runs are warm no-ops when a batch pass
// already scheduled them.
func (se *Session) RecordCtx(ctx context.Context, spec Spec) (Record, error) {
	spec = spec.Canonical()
	res, err := se.RunCtx(ctx, spec)
	if err != nil {
		return Record{}, err
	}
	if spec.Predictor != "none" {
		if _, err := se.RunCtx(ctx, spec.Baseline()); err != nil {
			return Record{}, err
		}
	}
	return se.Record(res)
}

// Records simulates specs (plus the baselines their speedups need) on the
// session's worker slots and flattens the results in spec order.
func (se *Session) Records(specs []Spec) ([]Record, error) {
	return se.RecordsCtx(context.Background(), specs)
}

// RecordsCtx is Records with cancellation (see RunAllCtx).
func (se *Session) RecordsCtx(ctx context.Context, specs []Spec) ([]Record, error) {
	batch := make([]Spec, 0, 2*len(specs))
	for _, s := range specs {
		batch = append(batch, s.Canonical())
	}
	for _, s := range specs {
		if s.Predictor != "none" {
			batch = append(batch, s.Canonical().Baseline())
		}
	}
	results, err := se.RunAllCtx(ctx, batch)
	if err != nil {
		return nil, err
	}
	out := make([]Record, len(specs))
	for i := range specs {
		out[i], err = se.Record(results[i])
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteJSON emits records as an indented JSON array with stable field names.
func WriteJSON(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// WriteCSV emits records as CSV: one header row, then one row per record.
// Floats use the shortest exact representation so values round-trip.
func WriteCSV(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, r := range recs {
		row := []string{
			r.Kernel, r.Predictor, r.Counters, r.Recovery,
			strconv.Itoa(r.Width), strconv.FormatBool(r.LoadsOnly), strconv.Itoa(r.MaxHist), r.FPCVector,
			f(r.IPC), f(r.Speedup), f(r.Coverage), f(r.Accuracy),
			u(r.Committed), strconv.FormatInt(r.Cycles, 10),
			u(r.SquashValue), u(r.SquashBranch), u(r.SquashMemOrder), u(r.ReissuedUops),
			f(r.BranchMPKI), f(r.B2BFraction),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
