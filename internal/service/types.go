// Package service is the simulation-as-a-service layer: a synchronous HTTP
// server over one process-lifetime harness.Session, so the memo (kernel
// traces and simulation results) is shared across every request the daemon
// ever answers. The versioned JSON API (DESIGN.md §6) answers batch-sync
// spec frames with their records (a single spec is a one-spec frame),
// registers workload programs, and offers /healthz, /statsz and /metrics
// observability.
// Experiments render on the client, from the records of their declared
// spec sets. cmd/vpserved is the daemon; service/client the typed Go
// client; repro.NewServer the facade constructor.
package service

import "repro/internal/harness"

// BatchSyncRequest is a spec frame, {"specs":[...]}: the body of POST
// /v1/simulate/batch-sync, the batched synchronous wire framing (DESIGN.md
// §12). One request carries many specs and one response carries their
// records in request order, so the HTTP round trip — the dominant cost of
// warm, memo-served dispatch — is amortized over the whole frame instead of
// paid per spec. Each spec object is harness.Spec's JSON form (DESIGN.md
// §6.1).
type BatchSyncRequest struct {
	Specs []harness.Spec `json:"specs"`
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
// in a spec's Program (a prog: reference — or a builtin kernel name, when
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
