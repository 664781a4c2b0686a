// Package service is the simulation-as-a-service layer: a synchronous HTTP
// server over one process-lifetime harness.Session, so the memo (kernel
// traces and simulation results) is shared across every request the daemon
// ever answers. The versioned JSON API (DESIGN.md §6) answers single specs
// and batch-sync spec frames with their records, registers workload
// programs, and offers /healthz, /statsz and /metrics observability.
// Experiments render on the client, from the records of their declared
// spec sets. cmd/vpserved is the daemon; service/client the typed Go
// client; repro.NewServer the facade constructor.
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
// §12). One request carries many specs and one response carries their
// records in request order, so the HTTP round trip — the dominant cost of
// warm, memo-served dispatch — is amortized over the whole frame instead of
// paid per spec.
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

// Health is the body of GET /v1/healthz. A serving daemon answers 200 with
// OK true; once SIGTERM drain begins the endpoint answers 503 with OK false
// and Draining true — same body shape, so a fleet front (or a load balancer
// probing status codes alone) stops routing new work to the shard while its
// in-flight requests finish.
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

// ServerStats is the body of GET /v1/statsz: the session's worker-slot load
// and its memo/store effectiveness.
// Workers is the session's slot count; GOMAXPROCS and NumCPU put it in
// context — min of the three is the parallelism the slots can really get.
// BusyWorkers counts slots held, QueuedTasks owners waiting for one, and
// Coalesced the lookups that joined an identical run in flight instead.
// MemoMisses counts simulations actually started; a result loaded from the
// persistent store is a MemoStoreHit, not a miss, so "memo_misses == 0"
// across a run is the warm-start success criterion.
type ServerStats struct {
	Workers       int    `json:"workers"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`
	BusyWorkers   int    `json:"busy_workers"`
	QueuedTasks   int    `json:"queued_tasks"`
	Coalesced     uint64 `json:"coalesced_tasks"`
	MemoHits      uint64 `json:"memo_hits"`
	MemoMisses    uint64 `json:"memo_misses"`
	MemoStoreHits uint64 `json:"memo_store_hits"`
	Draining      bool   `json:"draining"`
	// Programs counts the workloads registered via POST /v1/programs (or
	// Session.RegisterProgram) over the daemon's lifetime. Uploads that
	// deduplicated onto a builtin kernel are not counted — they added nothing.
	Programs int         `json:"programs"`
	Store    *StoreStats `json:"store,omitempty"`

	// Shard identifies this daemon within a fleet (DESIGN.md §12).
	Shard ShardInfo `json:"shard"`

	Limits Limits `json:"limits"`
}
