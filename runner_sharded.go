package repro

import (
	"context"

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
	backend // records: the fleet's scatter/gather; session: one at the shards' windows
	f       *fleet.Runner
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
func openFleet(shards []string, o RunnerOptions, label string) (*ShardedRunner, error) {
	f, err := fleet.New(fleet.Options{Shards: shards})
	if err != nil {
		return nil, err
	}
	var tracer *obs.Tracer
	if o.TraceWriter != nil {
		tracer = obs.NewTracer(o.TraceWriter)
	}
	return &ShardedRunner{
		backend: backend{records: f.Records, session: f.Session, obs: newRunnerObs(o.Metrics, tracer, label)},
		f:       f,
	}, nil
}

// Shards reports every shard's current health (url, id, up/draining/down),
// in configuration order — the client-side view the fleet routes by.
func (r *ShardedRunner) Shards() []fleet.ShardStatus { return r.f.Shards() }

// ProbeShards refreshes every shard's health once, synchronously, ahead of
// the background prober's next tick (a one-shard fleet runs no prober).
func (r *ShardedRunner) ProbeShards(ctx context.Context) { r.f.ProbeOnce(ctx) }

// RegisterProgram uploads p to every shard and remembers its bytes for
// re-upload self-healing (Runner interface). The content-addressed workload
// id is the same on every shard and every backend.
func (r *ShardedRunner) RegisterProgram(ctx context.Context, p *Program) (string, error) {
	return r.f.RegisterProgram(ctx, p)
}

// Close stops the health prober, if any, and releases pooled connections.
func (r *ShardedRunner) Close() error { return r.f.Close() }
