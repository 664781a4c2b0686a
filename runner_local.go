package repro

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/store"
)

// LocalRunner runs simulations in-process on one long-lived
// harness.Session: kernel traces and simulation results are memoized for
// the runner's lifetime, so every consumer — repeated Simulate calls,
// overlapping Batch sets, experiment renders — pays warmup once per
// distinct spec. The session's RunnerOptions.Workers slots bound the whole
// runner: concurrent Simulate, Batch and Experiment calls share them, as a
// daemon's requests do. Safe for concurrent use.
type LocalRunner struct {
	session *harness.Session
	obs     *runnerObs // nil when unobserved
}

// OpenLocalRunner builds a runner over a fresh session sized by o, opening
// (creating if needed) the persistent record store when o.StoreDir is set.
// A non-nil o.Metrics or o.TraceWriter attaches the observability layer:
// session instruments (cache lookups, simulations, phase timings) plus the
// runner's own dispatch histogram.
func OpenLocalRunner(o RunnerOptions) (*LocalRunner, error) {
	o = o.withDefaults()
	var st *store.Store
	if o.StoreDir != "" {
		var err error
		if st, err = store.Open(o.StoreDir, harness.StoreVersion); err != nil {
			return nil, err
		}
	}
	var observer *harness.Observer
	var ro *runnerObs
	if o.Metrics != nil || o.TraceWriter != nil {
		var tracer *obs.Tracer
		if o.TraceWriter != nil {
			tracer = obs.NewTracer(o.TraceWriter)
		}
		observer = harness.NewObserver(o.Metrics, tracer)
		ro = newRunnerObs(o.Metrics, tracer, "local")
	}
	se := harness.NewSession(harness.SessionConfig{
		Warmup: o.Warmup, Measure: o.Measure, Workers: o.Workers, Store: st, Observer: observer,
	})
	return &LocalRunner{session: se, obs: ro}, nil
}

// NewLocalRunner builds a runner over a fresh session sized by o. It panics
// if o.StoreDir is set and unusable; callers that configure a store should
// prefer OpenLocalRunner.
func NewLocalRunner(o RunnerOptions) *LocalRunner {
	r, err := OpenLocalRunner(o)
	if err != nil {
		panic(err)
	}
	return r
}

// Session exposes the shared session, for callers that need harness-level
// access (benchmarks, tests).
func (r *LocalRunner) Session() *harness.Session { return r.session }

// MemoStats reports the shared session's memo and store effectiveness — the
// local analogue of the service's /v1/statsz counters.
func (r *LocalRunner) MemoStats() MemoStats { return r.session.MemoStats() }

// Simulate runs one spec and the baseline its speedup needs (walked
// together, so they run in parallel when the runner has more than one
// worker slot) and returns the flattened record.
func (r *LocalRunner) Simulate(ctx context.Context, spec Spec) (Record, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return Record{}, err
	}
	start := time.Now()
	var rec Record
	_, err := r.session.Records(ctx, []Spec{spec}, func(got Record) error {
		rec = got
		return nil
	})
	r.obs.observe(spec, start, err)
	return rec, err
}

// Batch implements the streaming contract over Session.Records: every
// distinct spec and baseline is one task, walked on the runner's worker
// slots, and fn receives each record in spec order as soon as it is
// complete.
func (r *LocalRunner) Batch(ctx context.Context, specs []Spec, fn func(Record) error) error {
	if len(specs) == 0 {
		return nil
	}
	for i, sp := range specs {
		if err := sp.Canonical().Validate(); err != nil {
			return fmt.Errorf("spec %d: %w", i, err)
		}
	}
	failed, err := r.session.Records(ctx, specs, fn)
	if failed >= 0 {
		return fmt.Errorf("spec %d: %w", failed, err)
	}
	return err
}

// Experiment renders one experiment through the shared session, at the
// runner's windows and within its worker slots.
func (r *LocalRunner) Experiment(ctx context.Context, id string, o ExperimentOptions, w io.Writer) error {
	e, err := lookupExperiment(id)
	if err != nil {
		return err
	}
	return harness.Render(ctx, r.session, e, o.Format, w)
}

// RegisterProgram adds p to the runner's session registry and returns its
// canonical workload string (Runner interface). Content-addressed and
// idempotent; a program byte-identical to a builtin kernel answers the
// builtin's name and shares all of its cached state.
func (r *LocalRunner) RegisterProgram(ctx context.Context, p *Program) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return r.session.RegisterProgram(p)
}

// Experiments returns the harness's §5.1 experiment index.
func (r *LocalRunner) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
	return experimentIndex(ctx)
}

// Close implements Runner. A local runner holds no resources beyond the
// memoized session, which the garbage collector reclaims; Close exists so
// Runner consumers can shut any backend down uniformly.
func (r *LocalRunner) Close() error { return nil }
