package repro

import (
	"context"
	"io"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// ShardedRunner is the fleet front (internal/fleet, DESIGN.md §12) as a
// public Runner: it consistent-hashes canonical spec identities across N
// vpserved shards, scatters batches as batch-sync frames, gathers records
// back into deterministic spec order, probes shard health, and re-routes
// around dead or draining shards. Results are byte-identical to a
// LocalRunner over the same specs and windows — sharding changes where a
// simulation runs, never what it computes. Safe for concurrent use.
type ShardedRunner struct {
	f   *fleet.Runner
	obs *runnerObs // nil when unobserved
}

// RemoteRunner is a ShardedRunner over one daemon: the same batch-sync
// frames, program re-upload self-healing and 413 frame bisection, with no
// health prober (a fleet of one has nowhere else to route).
type RemoteRunner = ShardedRunner

// Interface compliance is part of the facade contract.
var _ Runner = (*ShardedRunner)(nil)

// OpenShardedRunner builds a fleet front over o.Shards (vpserved base
// URLs). Windows, workers and the store belong to each shard daemon;
// o.Metrics and o.TraceWriter attach client-side observability
// (repro_dispatch_seconds{backend="sharded"} plus a dispatch span per
// Simulate), exactly like the other Open constructors.
func OpenShardedRunner(o RunnerOptions) (*ShardedRunner, error) {
	return openFleet(o.Shards, o, "sharded")
}

// OpenRemoteRunner builds a runner against the vpserved daemon at baseURL
// (e.g. "http://127.0.0.1:8437"): a one-shard fleet. o.Metrics and
// o.TraceWriter attach the same client-side observability as
// OpenShardedRunner under the "remote" backend label — the full HTTP round
// trip per Simulate, the number to hold against a local runner's "local"
// label. The remaining RunnerOptions fields describe a local session and are
// ignored: windows, workers, and the store belong to the daemon. It panics
// if baseURL is empty, the only way a one-shard fleet can be misconfigured.
func OpenRemoteRunner(baseURL string, o RunnerOptions) *RemoteRunner {
	r, err := openFleet([]string{baseURL}, o, "remote")
	if err != nil {
		panic(err)
	}
	return r
}

// openFleet builds the fleet front over shards with dispatch observability
// under the given backend label.
func openFleet(shards []string, o RunnerOptions, backend string) (*ShardedRunner, error) {
	f, err := fleet.New(fleet.Options{Shards: shards})
	if err != nil {
		return nil, err
	}
	var tracer *obs.Tracer
	if o.TraceWriter != nil {
		tracer = obs.NewTracer(o.TraceWriter)
	}
	return &ShardedRunner{f: f, obs: newRunnerObs(o.Metrics, tracer, backend)}, nil
}

// Shards reports every shard's current health (url, id, up/draining/down),
// in configuration order — the client-side view the fleet routes by.
func (r *ShardedRunner) Shards() []fleet.ShardStatus { return r.f.Shards() }

// ProbeShards refreshes every shard's health once, synchronously, ahead of
// the background prober's next tick (a one-shard fleet runs no prober).
func (r *ShardedRunner) ProbeShards(ctx context.Context) { r.f.ProbeOnce(ctx) }

// Simulate routes one spec to its owning shard (Runner interface).
func (r *ShardedRunner) Simulate(ctx context.Context, spec Spec) (Record, error) {
	start := time.Now()
	rec, err := r.f.Simulate(ctx, spec)
	r.obs.observe(spec.Canonical(), start, err)
	return rec, err
}

// Batch scatters the specs across their owning shards and delivers records
// to fn in spec order (Runner interface).
func (r *ShardedRunner) Batch(ctx context.Context, specs []Spec, fn func(Record) error) error {
	return r.f.Batch(ctx, specs, fn)
}

// Experiment regenerates one experiment by id (Runner interface): its
// declared spec set scatters across the shards and the records render on
// the client. Windows and concurrency belong to each shard daemon.
func (r *ShardedRunner) Experiment(ctx context.Context, id string, o ExperimentOptions, w io.Writer) error {
	e, err := lookupExperiment(id)
	if err != nil {
		return err
	}
	return r.f.Experiment(ctx, e, o.Format, w)
}

// Experiments returns the experiment index (Runner interface): the
// client's own, since experiments render on the client.
func (r *ShardedRunner) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
	return experimentIndex(ctx)
}

// RegisterProgram uploads p to every shard and remembers its bytes for
// re-upload self-healing (Runner interface). The content-addressed workload
// id is the same on every shard and every backend.
func (r *ShardedRunner) RegisterProgram(ctx context.Context, p *Program) (string, error) {
	return r.f.RegisterProgram(ctx, p)
}

// Close stops the health prober, if any, and releases pooled connections.
func (r *ShardedRunner) Close() error { return r.f.Close() }
