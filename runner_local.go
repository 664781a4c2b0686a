package repro

import (
	"context"

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
	backend // records: the session's own Records
	se      *harness.Session
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
	return &LocalRunner{
		backend: backend{
			records: se.Records,
			session: func(context.Context) (*harness.Session, error) { return se, nil },
			obs:     ro,
		},
		se: se,
	}, nil
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
func (r *LocalRunner) Session() *harness.Session { return r.se }

// MemoStats reports the shared session's memo and store effectiveness — the
// local analogue of the service's /v1/statsz counters.
func (r *LocalRunner) MemoStats() MemoStats { return r.se.MemoStats() }

// RegisterProgram adds p to the runner's session registry and returns its
// canonical workload string (Runner interface). Content-addressed and
// idempotent; a program byte-identical to a builtin kernel answers the
// builtin's name and shares all of its cached state.
func (r *LocalRunner) RegisterProgram(ctx context.Context, p *Program) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return r.se.RegisterProgram(p)
}

// Close implements Runner. A local runner holds no resources beyond the
// memoized session, which the garbage collector reclaims; Close exists so
// Runner consumers can shut any backend down uniformly.
func (r *LocalRunner) Close() error { return nil }
