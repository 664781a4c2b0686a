package harness

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
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

// Records produces the record of every spec and calls fn with each one, in
// spec order, as soon as it is complete; fn is never called concurrently. It
// is the one path from specs to records: the daemon's batch-sync core and
// the LocalRunner both call it.
//
// Every spec is canonicalized, not validated: input from outside is
// validated where it enters, and simulate still rejects an invalid spec at
// its task. Each distinct spec, and each non-baseline spec's Baseline(), is
// one task (planTasks). A task with a completed memo entry is answered
// inline (peek), so a fully warm call starts no goroutine, allocates no
// channel and takes no slot. Cold tasks are walked (Each) through RunCtx,
// whose worker slots bound them together with every other caller's. Within
// one call every task is distinct, so no walker waits on another's run. A
// record is built from its spec's and its baseline's results directly
// (newRecord), with no further lookup.
//
// On failure Records returns the index of the first failing spec in spec
// order with that spec's error, or -1 when fn failed or ctx ended. It
// returns only once its walkers have: returning early cancels the cold tasks
// that remain.
func (se *Session) Records(ctx context.Context, specs []Spec, fn func(Record) error) (failed int, err error) {
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	p := planTasks(specs)
	var cold []int
	for i := range p.tasks {
		t := &p.tasks[i]
		var ok bool
		if t.res, t.err, ok = se.peek(t.spec); !ok {
			t.done = make(chan struct{})
			cold = append(cold, i)
		}
	}
	if len(cold) > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		walked := make(chan struct{})
		go func() {
			defer close(walked)
			se.Each(len(cold), func(j int) {
				t := &p.tasks[cold[j]]
				if t.err = ctx.Err(); t.err == nil {
					t.res, t.err = se.RunCtx(ctx, t.spec)
				}
				close(t.done)
			})
		}()
		defer func() {
			cancel()
			<-walked
		}()
	}
	for i := range specs {
		res, err := p.tasks[p.spec[i]].wait(ctx)
		var base *Result
		if err == nil && p.base[i] >= 0 {
			base, err = p.tasks[p.base[i]].wait(ctx)
		}
		var rec Record
		if err == nil {
			rec, err = newRecord(res, base)
		}
		if err != nil {
			// The budget covers waiting for a slot or on another caller's
			// run as much as simulating: an ended ctx fails the whole call.
			if ctx.Err() != nil {
				return -1, ctx.Err()
			}
			return i, err
		}
		if err := fn(rec); err != nil {
			return -1, err
		}
	}
	return -1, nil
}

// task is one distinct simulation of a Records call.
type task struct {
	spec Spec
	res  *Result
	err  error
	done chan struct{} // closed once a walker has set res and err; nil when answered inline
}

// wait returns t's outcome once it is known, or ctx's error if ctx ends
// first.
func (t *task) wait(ctx context.Context) (*Result, error) {
	if t.done != nil {
		select {
		case <-t.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return t.res, t.err
}

// plan is the task list of a Records call.
type plan struct {
	tasks []task
	spec  []int // requested spec i -> its task
	base  []int // requested spec i -> its baseline's task, -1 for a baseline spec
}

// planTasks plans every distinct canonical spec and each non-baseline spec's
// Baseline() once, in first-appearance order: each spec, then its baseline.
func planTasks(specs []Spec) plan {
	p := plan{spec: make([]int, len(specs)), base: make([]int, len(specs))}
	seen := make(map[Spec]int, 2*len(specs))
	add := func(sp Spec) int {
		i, ok := seen[sp]
		if !ok {
			i = len(p.tasks)
			seen[sp] = i
			p.tasks = append(p.tasks, task{spec: sp})
		}
		return i
	}
	for i, sp := range specs {
		sp = sp.Canonical()
		p.spec[i], p.base[i] = add(sp), -1
		if sp.Predictor != "none" {
			p.base[i] = add(sp.Baseline())
		}
	}
	return p
}

// newRecord flattens res into the machine-readable form. base is the result
// of res's Baseline() spec, nil for a baseline spec, whose speedup is 1 by
// definition. It is the one place a spec's IPC is divided by its
// baseline's.
func newRecord(res, base *Result) (Record, error) {
	sp := 1.0
	if base != nil {
		if base.Stats.IPC() == 0 {
			return Record{}, fmt.Errorf("harness: zero baseline IPC for %s", res.Spec.Kernel)
		}
		sp = res.Stats.IPC() / base.Stats.IPC()
	}
	counters := res.Spec.Counters.String()
	if res.Spec.FPCVec != "" {
		counters = "custom"
	}
	st := res.Stats
	return Record{
		Kernel:         res.Spec.Kernel,
		Predictor:      res.Spec.Predictor,
		Counters:       counters,
		Recovery:       res.Spec.Recovery.String(),
		Width:          res.Spec.Width,
		LoadsOnly:      res.Spec.LoadsOnly,
		MaxHist:        res.Spec.MaxHist,
		FPCVector:      res.Spec.FPCVec,
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
