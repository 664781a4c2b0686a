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
	opts    RunnerOptions
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
	se := harness.NewSession(o.Warmup, o.Measure)
	se.UseWorkers(o.Workers)
	if o.StoreDir != "" {
		st, err := store.Open(o.StoreDir, harness.StoreVersion)
		if err != nil {
			return nil, err
		}
		se.UseStore(st)
	}
	r := &LocalRunner{opts: o, session: se}
	if o.Metrics != nil || o.TraceWriter != nil {
		var tracer *obs.Tracer
		if o.TraceWriter != nil {
			tracer = obs.NewTracer(o.TraceWriter)
		}
		se.Observe(harness.NewObserver(o.Metrics, tracer))
		r.obs = newRunnerObs(o.Metrics, tracer, "local")
	}
	return r, nil
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
	batch := []harness.Spec{spec}
	if spec.Predictor != "none" {
		batch = append(batch, spec.Baseline())
	}
	if _, err := r.session.RunAllCtx(ctx, batch); err != nil {
		r.obs.observe(spec, start, err)
		return Record{}, err
	}
	rec, err := r.session.RecordCtx(ctx, spec) // warm: both runs just landed
	r.obs.observe(spec, start, err)
	return rec, err
}

// Batch implements the streaming contract over the session's walker: specs
// are produced concurrently (Session.Each; each call produces one spec's
// record, baseline included, within the runner's worker slots), and a
// delivery loop invokes fn in spec order as soon as each record's turn is
// reachable. Duplicate specs and shared baselines are free via the session
// memo and its singleflight.
func (r *LocalRunner) Batch(ctx context.Context, specs []Spec, fn func(Record) error) error {
	if len(specs) == 0 {
		return nil
	}
	canon := make([]harness.Spec, len(specs))
	for i, sp := range specs {
		canon[i] = sp.Canonical()
		if err := canon[i].Validate(); err != nil {
			return fmt.Errorf("spec %d: %w", i, err)
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	type outcome struct {
		rec Record
		err error
	}
	// One buffered channel per spec: walkers never block on delivery, and
	// the in-order delivery loop below never blocks a walker.
	outs := make([]chan outcome, len(canon))
	for i := range outs {
		outs[i] = make(chan outcome, 1)
	}
	walked := make(chan struct{})
	go func() {
		defer close(walked)
		r.session.Each(len(canon), func(i int) {
			var out outcome
			if out.err = ctx.Err(); out.err == nil {
				out.rec, out.err = r.session.RecordCtx(ctx, canon[i])
			}
			outs[i] <- out
		})
	}()
	// No walker outlives the call, whichever way the delivery loop exits.
	defer func() {
		cancel()
		<-walked
	}()

	for i := range canon {
		select {
		case out := <-outs[i]:
			if out.err != nil {
				return fmt.Errorf("spec %d: %w", i, out.err)
			}
			if err := fn(out.rec); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Experiment renders one experiment through the shared session. A nonzero
// o.Warmup/o.Measure differing from the runner's windows forgoes the shared
// memo: measurement windows are session-wide state, so a differently-sized
// request runs on its own throwaway session.
func (r *LocalRunner) Experiment(ctx context.Context, id string, o ExperimentOptions, w io.Writer) error {
	e, err := lookupExperiment(id)
	if err != nil {
		return err
	}
	se := r.session
	warmup, measure := r.opts.Warmup, r.opts.Measure
	if o.Warmup != 0 {
		warmup = o.Warmup
	}
	if o.Measure != 0 {
		measure = o.Measure
	}
	if warmup != r.opts.Warmup || measure != r.opts.Measure {
		se = harness.NewSession(warmup, measure)
		se.UseWorkers(r.opts.Workers)
	}
	return harness.Render(ctx, se, e, o.Format, w)
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
