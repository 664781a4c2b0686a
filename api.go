// Package repro is a from-scratch Go reproduction of Perais & Seznec,
// "Practical Data Value Speculation for Future High-end Processors"
// (HPCA 2014): the VTAGE value predictor and Forward Probabilistic Counter
// (FPC) confidence scheme, the baseline predictors they are evaluated
// against (LVP, 2-delta Stride, order-4 FCM, hybrids), and the full
// evaluation substrate — a cycle-level 8-wide out-of-order pipeline with
// TAGE branch prediction, store sets, a three-level cache hierarchy over a
// DDR3 model, and 19 synthetic SPEC-like kernels.
//
// This root package is the stable facade. Its center is the backend-neutral
// Runner API (runner.go): one Spec vocabulary and one interface —
// Simulate/Batch/Experiment — served either in-process over a long-lived
// warm session (LocalRunner) or by vpserved daemons (RemoteRunner for one,
// ShardedRunner for a fleet). The building blocks live in internal/
// packages (see DESIGN.md for the system inventory, §7 for the facade
// design).
package repro

import (
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/service/client"
)

// Recovery selects the value-misprediction recovery mechanism.
type Recovery = pipeline.RecoveryMode

// Recovery mechanisms (Section 3.1.1 of the paper).
const (
	SquashAtCommit   = pipeline.SquashAtCommit
	SelectiveReissue = pipeline.SelectiveReissue
)

// Counters selects the confidence-counter scheme.
type Counters = harness.Counters

// Counter schemes (Section 5 of the paper).
const (
	BaselineCounters = harness.BaselineCounters
	FPC              = harness.FPC
)

// Kernels lists the 19 synthetic benchmark names (Table 3 order).
func Kernels() []string { return kernels.Names() }

// Predictors lists the predictor configuration names: "none", "lvp",
// "stride", "fcm", "vtage", "oracle", "fcm+stride", "vtage+stride", "ps",
// "gdiff".
func Predictors() []string { return harness.PredictorNames }

// Experiments lists the reproducible tables and figures by id; every
// Runner answers the same index (Runner.Experiments), since every backend
// renders on the client.
func Experiments() []string {
	var ids []string
	for _, e := range harness.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// ExperimentOptions sizes and formats one experiment run. With a Runner,
// Warmup/Measure are per-call window overrides: zero keeps the runner's
// windows; a LocalRunner honours an override on a throwaway session, a
// RemoteRunner refuses a mismatch with the server's windows. Concurrency is
// the runner's (RunnerOptions.Workers), not the call's.
type ExperimentOptions struct {
	Warmup  uint64 // µops before measurement per simulation (0: runner default)
	Measure uint64 // measured µops per simulation (0: runner default)
	Format  string // "text" (default), "json", or "csv"
}

// APIError is a typed service-layer failure: HTTP status, a stable
// machine-readable code (APICode* constants), and the server's message.
// Client calls return it unwrapped; remote Runner backends may wrap it with
// context — assert with errors.As(err, *APIError).
type APIError = service.APIError

// Stable APIError codes.
const (
	APICodeBadRequest     = service.CodeBadRequest
	APICodeTooLarge       = service.CodeTooLarge
	APICodeDraining       = service.CodeDraining
	APICodeTimeout        = service.CodeTimeout
	APICodeInternal       = service.CodeInternal
	APICodeUnknownProgram = service.CodeUnknownProgram
)

// ---------------------------------------------------------------------------
// Workload programs (DESIGN.md §11): bring-your-own workloads as data. A
// Program — hand-assembled, loaded from a file, or generated — becomes a
// simulation input by registering it with a Runner, which answers the
// content-addressed workload string to put in Spec.Program. Identity is the
// program's bytes, never its name: byte-identical programs share memo
// entries and persisted store records across backends and daemon restarts,
// and two different programs can never collide.
// ---------------------------------------------------------------------------

// Program is a workload program: code, data segments, initial registers and
// an entry point for the simulated ISA (internal/isa made public).
type Program = isa.Program

// ProgramInfo describes one program registered with a daemon (the POST/GET
// /v1/programs wire form): its canonical workload id plus display metadata.
type ProgramInfo = service.ProgramInfo

// AssembleProgram parses text-assembly source (the .vasm grammar of
// DESIGN.md §11) into a program. name is used when the source has no .name
// directive.
func AssembleProgram(name string, src []byte) (*Program, error) { return isa.Assemble(name, src) }

// DisassembleProgram renders p as canonical text assembly; assembling the
// output reproduces p byte for byte.
func DisassembleProgram(p *Program) []byte { return isa.Disassemble(p) }

// LoadProgram sniffs data's format — binary program encoding or text
// assembly — and decodes accordingly; name applies to assembly with no
// .name directive. This is what the CLIs' -program flags call.
func LoadProgram(name string, data []byte) (*Program, error) { return isa.Load(name, data) }

// GenerateProgram builds a deterministic synthetic workload: the same
// family and seed produce byte-identical programs on every machine, so
// generated corpora are shareable by (family, seed) alone. Families are
// listed by GeneratorFamilies.
func GenerateProgram(family string, seed uint64) (*Program, error) { return isa.Generate(family, seed) }

// GeneratorFamilies lists the synthetic workload families GenerateProgram
// accepts.
func GeneratorFamilies() []string { return isa.Families() }

// ProgramID returns p's content-addressed workload reference
// ("prog:<sha256>" over the binary encoding) without registering it
// anywhere — useful for naming expectations in tests and manifests.
func ProgramID(p *Program) string { return harness.ProgramID(p) }

// ---------------------------------------------------------------------------
// Service layer (DESIGN.md §6): the simulation-as-a-service subsystem. A
// Server is one process-lifetime session behind the synchronous /v1 HTTP
// API — single specs and batch-sync spec frames answered with records,
// program upload, and /healthz, /statsz and /metrics observability;
// cancelling a request frees its workers. Experiments render on the client
// from their records. cmd/vpserved is the standalone daemon; Client is the
// typed way to talk to either, and RemoteRunner (a one-shard
// ShardedRunner) the backend-neutral one.
// ---------------------------------------------------------------------------

// Server is the simulation service as an http.Handler.
type Server = service.Server

// ServerOptions configures a Server; the zero value uses serving defaults
// (50k/250k windows, GOMAXPROCS workers, 4096 specs/frame, 2m per-request
// budget).
type ServerOptions = service.Options

// SpecRequest is the wire form of one simulation spec.
type SpecRequest = service.SpecRequest

// ServerStats is the /v1/statsz body.
type ServerStats = service.ServerStats

// NewServer builds the simulation service over one session bounded to
// o.Workers slots. Serve it with net/http; stop it with Drain (graceful) or
// Close.
func NewServer(o ServerOptions) (*Server, error) { return service.New(o) }

// Client is the typed client for a running Server / vpserved daemon.
type Client = client.Client

// NewClient builds a client for the service at baseURL
// (e.g. "http://127.0.0.1:8437").
func NewClient(baseURL string) *Client { return client.New(baseURL) }
