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
	// runs the experiment's declared spec set through Batch and renders the
	// records on the client, so the bytes are identical across backends.
	// The format (text, json, csv) comes from o; the windows are the
	// backend's own.
	Experiment(ctx context.Context, id string, o ExperimentOptions, w io.Writer) error

	// Experiments returns the experiment index (the same on every backend).
	Experiments(ctx context.Context) ([]ExperimentInfo, error)

	// RegisterProgram promotes p to a first-class workload of this backend
	// and returns the workload string to put in Spec.Program: normally the
	// content-addressed "prog:<sha256>" reference, or the builtin kernel's
	// name when p is byte-identical to one. Every backend names p the same
	// way before any work, so it fails only for an ended context or a nil
	// or invalid program. A LocalRunner registers it on the warm session;
	// remote backends upload it (POST /v1/programs) and re-upload
	// transparently to a daemon that missed it or restarted, so program
	// specs behave identically across backends.
	RegisterProgram(ctx context.Context, p *Program) (string, error)

	// Close releases the runner's resources. The error is always nil today;
	// the signature leaves room for backends with real shutdown work.
	Close() error
}

// Interface compliance is part of the facade contract.
var _ Runner = (*LocalRunner)(nil)

// backend is what one Runner backend supplies, and the one place the
// shared Runner methods (Simulate, Batch, Experiment, Experiments) are
// written: LocalRunner and ShardedRunner embed it, so every backend runs
// the same validation, error wrapping, rendering and dispatch observation
// over its own records function.
type backend struct {
	// records is the backend's one primitive, with
	// harness.Session.Records' contract: the record of every spec, in spec
	// order, to fn; specs are canonicalized, not validated; on failure the
	// index of the first failing spec, or -1 when fn failed or ctx ended.
	records func(ctx context.Context, specs []Spec, fn func(Record) error) (failed int, err error)

	obs *runnerObs // nil when unobserved
}

// Simulate runs one spec and the baseline its speedup needs as a one-spec
// records call and returns the flattened record (Runner interface). The
// spec is canonicalized and validated before dispatch; errors return
// unwrapped.
func (b *backend) Simulate(ctx context.Context, spec Spec) (Record, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return Record{}, err
	}
	start := time.Now()
	var rec Record
	_, err := b.records(ctx, []Spec{spec}, func(got Record) error {
		rec = got
		return nil
	})
	b.obs.observe(spec, start, err)
	return rec, err
}

// Batch validates every spec, then streams their records to fn in spec
// order (Runner interface). A failing spec reads "spec N: ...".
func (b *backend) Batch(ctx context.Context, specs []Spec, fn func(Record) error) error {
	if len(specs) == 0 {
		return nil
	}
	for i, sp := range specs {
		if err := sp.Canonical().Validate(); err != nil {
			return fmt.Errorf("spec %d: %w", i, err)
		}
	}
	failed, err := b.records(ctx, specs, fn)
	if failed >= 0 {
		return fmt.Errorf("spec %d: %w", failed, err)
	}
	return err
}

// Experiment renders one experiment by id into w (Runner interface): the
// format is checked before any work, the declared spec set runs through
// Batch, and the records render on the client (harness.RenderRecords), so
// the bytes are identical across backends. An experiment that declares no
// specs reads nothing from the backend, so it needs no daemon.
func (b *backend) Experiment(ctx context.Context, id string, o ExperimentOptions, w io.Writer) error {
	e, ok := harness.ExperimentByID(id)
	if !ok {
		return fmt.Errorf("repro: unknown experiment %q (have %v)", id, Experiments())
	}
	if err := harness.CheckFormat(e, o.Format); err != nil {
		return err
	}
	var recs []Record
	if e.Specs != nil {
		if err := b.Batch(ctx, e.Specs(), func(rec Record) error {
			recs = append(recs, rec)
			return nil
		}); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return harness.RenderRecords(e, o.Format, recs, w)
}

// Experiments returns the experiment index (Runner interface): the same on
// every backend, since every backend renders on the client.
func (b *backend) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
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
	Warmup  uint64 // µops before measurement per simulation (default harness.DefaultWarmup)
	Measure uint64 // measured µops per simulation (default harness.DefaultMeasure)
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

// withDefaults resolves unset windows to the harness defaults. Workers
// stays as-is: harness.NewSession resolves <=0 to GOMAXPROCS.
func (o RunnerOptions) withDefaults() RunnerOptions {
	if o.Warmup == 0 {
		o.Warmup = harness.DefaultWarmup
	}
	if o.Measure == 0 {
		o.Measure = harness.DefaultMeasure
	}
	return o
}

// runnerObs is the dispatch-level instrumentation every backend shares: the
// repro_dispatch_seconds{backend} histogram and a dispatch span per Simulate
// call, both under the runner's backend label (local, remote or sharded).
// Comparing the labels on one registry puts a number on the wire tax a
// remote runner pays over a warm local call. A nil *runnerObs is a no-op,
// so unobserved runners carry no overhead.
type runnerObs struct {
	dispatch *obs.Histogram
	tracer   *obs.Tracer
	label    string
}

// newRunnerObs builds the dispatch instruments for one backend label. The
// tracer is shared with the session observer (one writer, one mutex) rather
// than rebuilt from the writer, so concurrent span emissions cannot
// interleave.
func newRunnerObs(reg *Metrics, tracer *obs.Tracer, label string) *runnerObs {
	if reg == nil && tracer == nil {
		return nil
	}
	ro := &runnerObs{tracer: tracer, label: label}
	if reg != nil {
		ro.dispatch = reg.HistogramVec("repro_dispatch_seconds",
			"Runner wall time per Simulate dispatch by backend: in-process scheduling (local) vs full HTTP round-trip (remote).",
			nil, "backend").With(label)
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
			Tier:  ro.label,
			DurNS: d.Nanoseconds(),
		}
		if err != nil {
			s.Err = err.Error()
		}
		ro.tracer.Emit(s)
	}
}
