package repro

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// Spec identifies one simulation: kernel, predictor, counter scheme,
// recovery mode, and the optional extended machine/predictor key (Width,
// LoadsOnly, MaxHist, FPCVec). It is the harness's canonical memo key made
// public, so the facade, the wire layer and the harness share one spec
// vocabulary: Canonical() folds equivalent spellings onto one identity,
// Validate() checks the constructible configuration space, and Baseline()
// names the no-VP machine a speedup divides by. Zero values mean the paper's
// Table 2 defaults.
type Spec = harness.Spec

// Record is the flattened, machine-readable result of one simulation —
// stable JSON/CSV field names, speedup included. Every Runner method that
// produces results produces Records.
type Record = harness.Record

// ExperimentInfo is one row of the experiment index: id plus the paper
// artifact it regenerates.
type ExperimentInfo = harness.ExperimentInfo

// Runner is the backend-neutral way to run simulations: the same interface
// drives an in-process session (LocalRunner), a vpserved daemon
// (RemoteRunner) or a fleet of them (ShardedRunner), so CLIs, examples and
// tests retarget with one flag.
// Implementations reuse one warm session per Runner — repeated and
// overlapping work hits the memo instead of re-paying predictor and cache
// warmup.
type Runner interface {
	// Simulate runs one spec (plus the baseline its speedup needs) and
	// returns its record.
	Simulate(ctx context.Context, spec Spec) (Record, error)

	// Batch runs every spec and invokes fn exactly once per spec, in spec
	// order, as records become deliverable — fn sees the prefix stream while
	// later specs are still simulating. A LocalRunner extends the prefix per
	// spec; remote backends extend it per batch-sync frame (up to 256
	// specs), as each frame's records arrive together. fn is never called
	// concurrently. A spec failure or a non-nil fn error aborts the batch.
	Batch(ctx context.Context, specs []Spec, fn func(Record) error) error

	// Experiment regenerates one experiment by id into w. Every backend
	// runs the experiment's declared spec set through its own Batch path
	// and renders the records on the client, so the bytes are identical
	// across backends. The format (text, json, csv) comes from o; the
	// windows are the backend's own.
	Experiment(ctx context.Context, id string, o ExperimentOptions, w io.Writer) error

	// Experiments returns the experiment index (the same on every backend).
	Experiments(ctx context.Context) ([]ExperimentInfo, error)

	// RegisterProgram promotes p to a first-class workload of this backend
	// and returns the workload string to put in Spec.Program: normally the
	// content-addressed "prog:<sha256>" reference, or the builtin kernel's
	// name when p is byte-identical to one. A LocalRunner registers it on
	// the warm session; remote backends upload it (POST /v1/programs) and
	// re-upload transparently if a daemon restarts, so program specs
	// behave identically across backends.
	RegisterProgram(ctx context.Context, p *Program) (string, error)

	// Close releases the runner's resources. The error is always nil today;
	// the signature leaves room for backends with real shutdown work.
	Close() error
}

// Interface compliance is part of the facade contract.
var _ Runner = (*LocalRunner)(nil)

// lookupExperiment resolves id against the harness index: one lookup, and
// one error for an unknown id, on every backend.
func lookupExperiment(id string) (harness.Experiment, error) {
	e, ok := harness.ExperimentByID(id)
	if !ok {
		return e, fmt.Errorf("repro: unknown experiment %q (have %v)", id, Experiments())
	}
	return e, nil
}

// experimentIndex is every backend's Runner.Experiments.
func experimentIndex(ctx context.Context) ([]ExperimentInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return harness.Index(), nil
}

// MemoStats snapshots a session's caching effectiveness: in-process memo
// hits, persistent-store hits, and misses (simulations actually started),
// plus the attached store's own counters.
type MemoStats = harness.MemoStats

// Metrics is the observability registry (internal/obs) made public: atomic
// counters, gauges, and latency histograms grouped into labeled families,
// rendered in Prometheus text format by WritePrometheus or served by
// Handler. One registry can back any number of runners, servers, and
// process-level instruments; DESIGN.md §10 catalogs the families the stack
// registers.
type Metrics = obs.Registry

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// RunnerOptions sizes a LocalRunner: per-simulation windows and the
// runner's worker slots, which bound every call on the runner together. The
// zero value is the paper's interactive default (50k warmup / 250k measured
// µops, GOMAXPROCS workers, no persistent store, no observability). OpenRemoteRunner and OpenShardedRunner honour Metrics and
// TraceWriter too — the other fields describe the local session a remote
// daemon owns itself.
type RunnerOptions struct {
	Warmup  uint64 // µops before measurement per simulation (default 50_000)
	Measure uint64 // measured µops per simulation (default 250_000)
	Workers int    // simulation slots shared by every call on the runner (<=0: GOMAXPROCS)

	// Shards is the vpserved base URLs a sharded runner routes across
	// (OpenShardedRunner). Ignored by the local and remote constructors
	// (OpenRemoteRunner takes its one URL as an argument): like StoreDir for
	// LocalRunner, it configures only the backend that reads it.
	Shards []string

	// StoreDir, when non-empty, attaches a persistent content-addressed
	// record store under the session memo: simulation results are loaded
	// from (and persisted to) the directory, so a fresh process over a
	// populated store pays disk reads instead of simulations. Any number of
	// processes may share one directory.
	StoreDir string

	// Metrics, when non-nil, registers the runner's instruments on the
	// given registry: cache lookups, executed simulations, per-phase wall
	// time, and repro_dispatch_seconds{backend} — the same families a
	// vpserved /metrics page exposes, so local and remote runs read alike.
	Metrics *Metrics

	// TraceWriter, when non-nil, receives one NDJSON span (obs.Span wire
	// schema, DESIGN.md §10) per simulation lifecycle stage and per runner
	// dispatch. The tracer serializes writes; an *os.File is fine.
	TraceWriter io.Writer
}

// withDefaults resolves unset windows to the facade defaults. Workers stays
// as-is: Session.UseWorkers resolves <=0 to GOMAXPROCS.
func (o RunnerOptions) withDefaults() RunnerOptions {
	if o.Warmup == 0 {
		o.Warmup = 50_000
	}
	if o.Measure == 0 {
		o.Measure = 250_000
	}
	return o
}

// runnerObs is the dispatch-level instrumentation both backends share: the
// repro_dispatch_seconds{backend} histogram and a dispatch span per Simulate
// call. Comparing the two backend labels on one registry puts a number on
// the wire tax a remote runner pays over a warm local call. A nil *runnerObs
// is a no-op, so unobserved runners carry no overhead.
type runnerObs struct {
	dispatch *obs.Histogram
	tracer   *obs.Tracer
	tier     string
}

// newRunnerObs builds the dispatch instruments for one backend. The tracer
// is shared with the session observer (one writer, one mutex) rather than
// rebuilt from the writer, so concurrent span emissions cannot interleave.
func newRunnerObs(reg *Metrics, tracer *obs.Tracer, backend string) *runnerObs {
	if reg == nil && tracer == nil {
		return nil
	}
	ro := &runnerObs{tracer: tracer, tier: backend}
	if reg != nil {
		ro.dispatch = reg.HistogramVec("repro_dispatch_seconds",
			"Runner wall time per Simulate dispatch by backend: in-process scheduling (local) vs full HTTP round-trip (remote).",
			nil, "backend").With(backend)
	}
	return ro
}

// observe records one dispatch: called with the call's start time and
// outcome as the Simulate returns.
func (ro *runnerObs) observe(spec Spec, start time.Time, err error) {
	if ro == nil {
		return
	}
	d := time.Since(start)
	if ro.dispatch != nil {
		ro.dispatch.Observe(d.Seconds())
	}
	if ro.tracer != nil {
		s := obs.Span{
			Run:   ro.tracer.Begin(),
			Spec:  spec.Identity(),
			Stage: obs.StageDispatch,
			Tier:  ro.tier,
			DurNS: d.Nanoseconds(),
		}
		if err != nil {
			s.Err = err.Error()
		}
		ro.tracer.Emit(s)
	}
}
