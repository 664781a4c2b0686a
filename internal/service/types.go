// Package service is the simulation-as-a-service layer: a job-oriented HTTP
// server over one process-lifetime harness.Session, so the memo (kernel
// traces and simulation results) is shared across every request the daemon
// ever answers. The versioned JSON API (DESIGN.md §6) offers synchronous
// single-spec simulation, asynchronous batch and experiment jobs with
// NDJSON/SSE result streaming, per-job cancellation, and /healthz +
// /statsz observability. cmd/vpserved is the daemon; service/client the
// typed Go client; repro.NewServer the facade constructor.
package service

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/pipeline"
)

// SpecRequest is the wire form of one simulation spec. Counters and
// Recovery use the same strings as the CLIs: "baseline" (default) or "fpc",
// and "squash" (default) or "reissue". The remaining fields are the
// extended config key (harness.Spec): zero values mean the paper's default
// machine, so pre-PR4 requests are unchanged. Width overrides the machine
// width, LoadsOnly restricts prediction to loads, MaxHist overrides
// VTAGE's history length (vtage-family predictors only), and FPCVector
// ("0,2,2,2,2,3,3") replaces the counters-derived probability vector.
type SpecRequest struct {
	Kernel string `json:"kernel"`
	// Program names the workload by content-addressed reference
	// ("prog:<sha256>", from POST /v1/programs) instead of a builtin kernel
	// name. Set one of Kernel and Program; a prog: reference in Kernel is
	// also accepted (the canonical spec carries the workload there), so
	// RequestFor round-trips program specs through the Kernel field.
	Program   string `json:"program,omitempty"`
	Predictor string `json:"predictor"`
	Counters  string `json:"counters,omitempty"`
	Recovery  string `json:"recovery,omitempty"`
	Width     int    `json:"width,omitempty"`
	LoadsOnly bool   `json:"loads_only,omitempty"`
	MaxHist   int    `json:"max_hist,omitempty"`
	FPCVector string `json:"fpc_vector,omitempty"`
}

// Spec converts the request to a canonical harness spec, validating it the
// same way (and in the same canonical-first order) as the harness itself,
// so the wire layer and the Go API accept exactly the same configurations.
func (r SpecRequest) Spec() (harness.Spec, error) {
	var s harness.Spec
	s.Kernel, s.Program, s.Predictor = r.Kernel, r.Program, r.Predictor
	switch r.Counters {
	case "", "baseline":
		s.Counters = harness.BaselineCounters
	case "fpc", "FPC":
		s.Counters = harness.FPC
	default:
		return s, fmt.Errorf("unknown counters %q (have baseline, fpc)", r.Counters)
	}
	switch r.Recovery {
	case "", "squash":
		s.Recovery = pipeline.SquashAtCommit
	case "reissue":
		s.Recovery = pipeline.SelectiveReissue
	default:
		return s, fmt.Errorf("unknown recovery %q (have squash, reissue)", r.Recovery)
	}
	s.Width = r.Width
	s.LoadsOnly = r.LoadsOnly
	s.MaxHist = r.MaxHist
	s.FPCVec = r.FPCVector
	s = s.Canonical()
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// RequestFor is Spec's inverse: the wire form of a harness spec. It is the
// one place the counters/recovery strings are produced (clients, benchmarks
// and tests all go through it, so the wire vocabulary cannot drift).
func RequestFor(s harness.Spec) SpecRequest {
	counters := "baseline"
	if s.Counters == harness.FPC {
		counters = "fpc"
	}
	return SpecRequest{
		Kernel:    s.Kernel,
		Predictor: s.Predictor,
		Counters:  counters,
		Recovery:  s.Recovery.String(),
		Width:     s.Width,
		LoadsOnly: s.LoadsOnly,
		MaxHist:   s.MaxHist,
		FPCVector: s.FPCVec,
	}
}

// BatchSyncRequest is a spec frame, {"specs":[...]}: the body of POST
// /v1/simulate/batch-sync, the batched synchronous wire framing (DESIGN.md
// §12), and of POST /v1/batch, its asynchronous job form. One synchronous
// request carries many specs and one response carries their records in
// request order, so the HTTP round trip — the dominant cost of warm,
// memo-served dispatch — is amortized over the whole frame instead of paid
// per spec.
type BatchSyncRequest struct {
	Specs []SpecRequest `json:"specs"`
}

// BatchSyncResponse answers a batch-sync frame: Records[i] is the flattened
// record of Specs[i]. The endpoint is all-or-nothing — a failing spec fails
// the whole frame with the standard error envelope (the first failure in
// request order), mirroring the Batch contract's first-error abort.
type BatchSyncResponse struct {
	Records []harness.Record `json:"records"`
}

// ProgramRequest is the body of POST /v1/programs: exactly one of Encoded
// (the program's binary encoding, base64 on the wire per encoding/json) and
// Assembly (text-assembly source, DESIGN.md §11). Name optionally overrides
// the program's display name when assembling source with no .name directive;
// it never affects an Encoded upload (the bytes are the identity).
type ProgramRequest struct {
	Encoded  []byte `json:"encoded,omitempty"`
	Assembly string `json:"assembly,omitempty"`
	Name     string `json:"name,omitempty"`
}

// ProgramInfo describes one registered program: the workload string to put
// in SpecRequest.Program (a prog: reference — or a builtin kernel name, when
// the upload was byte-identical to that builtin), plus display metadata.
type ProgramInfo struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	Insts int    `json:"insts"`
	Bytes int    `json:"bytes"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the wire form of one job. Records (per requested spec, in
// spec order, identical to a sequential Session.Records over the same
// specs) and Artifact (the rendered text table of an experiment job) are
// populated once State is terminal. A failed or canceled job returns the
// records that completed before it died — missing entries are zero-valued;
// the stream's per-spec "error" events name the ones that were lost.
type JobStatus struct {
	ID            string           `json:"id"`
	Kind          string           `json:"kind"` // "batch" or "experiment"
	Experiment    string           `json:"experiment,omitempty"`
	State         string           `json:"state"`
	Specs         int              `json:"specs"`     // requested specs
	Completed     int              `json:"completed"` // requested specs finished
	Error         string           `json:"error,omitempty"`
	SubmittedUnix int64            `json:"submitted_unix"`
	StartedUnix   int64            `json:"started_unix,omitempty"`
	FinishedUnix  int64            `json:"finished_unix,omitempty"`
	Records       []harness.Record `json:"records,omitempty"`
	Artifact      string           `json:"artifact,omitempty"`
}

// terminalState is the one definition of "this job can change no further";
// Finished, cancellation, and retention all use it.
func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Finished reports whether the job has reached a terminal state.
func (s JobStatus) Finished() bool { return terminalState(s.State) }

// Event is one line of a job's NDJSON stream (or one SSE data frame):
// "record" events carry one finished record with its index into the
// requested spec order (records stream in completion order, not spec
// order); "error" events carry the failure of one requested spec that will
// never produce a record (its simulation, its baseline, or the record
// flattening failed — cancellation included), so a streaming client learns
// about the loss before the terminal "done"; the final "done" event carries
// the terminal JobStatus, records omitted since they were already streamed.
type Event struct {
	Type string `json:"type"` // "status", "record", "error", "done"
	// Index is meaningful only when Type is "record" or "error"
	// (status/done events carry a zero Index that refers to nothing). It is
	// always serialized — no omitempty — so a record event for spec 0 looks
	// like every other record event.
	Index  int             `json:"index"`
	Record *harness.Record `json:"record,omitempty"`
	Job    *JobStatus      `json:"job,omitempty"`
	Error  string          `json:"error,omitempty"` // set when Type is "error"
}

// ExperimentInfo is one row of GET /v1/experiments.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// Health is the body of GET /v1/healthz. A serving daemon answers 200 with
// OK true; once SIGTERM drain begins the endpoint answers 503 with OK false
// and Draining true — same body shape, so a fleet front (or a load balancer
// probing status codes alone) stops routing new work to the shard while its
// in-flight jobs finish.
type Health struct {
	OK       bool    `json:"ok"`
	UptimeS  float64 `json:"uptime_s"`
	Draining bool    `json:"draining"`
	ShardID  string  `json:"shard_id,omitempty"`
}

// ShardInfo is the shard identity block of /v1/statsz: who this daemon is in
// a fleet (vpserved -shard-id, defaulting to the bound host:port) and since
// when it has been serving, so fleet probing and logs can tell shards apart.
type ShardInfo struct {
	ID            string  `json:"id"`
	StartUnix     int64   `json:"start_time_unix"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Limits echoes the admission configuration in /v1/statsz.
type Limits struct {
	MaxJobs          int    `json:"max_jobs"`
	MaxBatch         int    `json:"max_specs_per_batch"`
	RequestTimeoutMs int64  `json:"request_timeout_ms"`
	Warmup           uint64 `json:"warmup_uops"`
	Measure          uint64 `json:"measure_uops"`
}

// StoreStats is the persistent-store section of /v1/statsz, present only
// when the daemon was started with -store-dir.
type StoreStats struct {
	Dir         string `json:"dir"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	LoadErrors  uint64 `json:"load_errors"`
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
}

// ServerStats is the body of GET /v1/statsz: scheduler load, the shared
// session's memo/store/snapshot effectiveness, and the job population by
// state.
// Workers is the scheduler pool size; GOMAXPROCS and NumCPU put it in
// context — min of the three is the parallelism the pool can really get.
// MemoMisses counts simulations actually started; a result loaded from the
// persistent store is a MemoStoreHit, not a miss, so "memo_misses == 0"
// across a run is the warm-start success criterion.
type ServerStats struct {
	Workers       int            `json:"workers"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	NumCPU        int            `json:"num_cpu"`
	BusyWorkers   int            `json:"busy_workers"`
	QueuedTasks   int            `json:"queued_tasks"`
	Coalesced     uint64         `json:"coalesced_tasks"`
	MemoHits      uint64         `json:"memo_hits"`
	MemoMisses    uint64         `json:"memo_misses"`
	MemoStoreHits uint64         `json:"memo_store_hits"`
	Jobs          map[string]int `json:"jobs"`
	ActiveJobs    int            `json:"active_jobs"`
	Draining      bool           `json:"draining"`
	// Programs counts the workloads registered via POST /v1/programs (or
	// Session.RegisterProgram) over the daemon's lifetime. Uploads that
	// deduplicated onto a builtin kernel are not counted — they added nothing.
	Programs int         `json:"programs"`
	Store    *StoreStats `json:"store,omitempty"`

	// Snapshots reports the warm-state snapshot cache (harness
	// SnapshotCache.Stats), present unless the cache was disabled with a
	// negative SnapshotCap. A snapshot hit still simulates — it skips only
	// the warmup phase — so these are orthogonal to the memo counters.
	Snapshots *harness.SnapshotStats `json:"snapshots,omitempty"`

	// Shard identifies this daemon within a fleet (DESIGN.md §12).
	Shard ShardInfo `json:"shard"`

	Limits Limits `json:"limits"`
}
