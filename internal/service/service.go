package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/store"
)

// Options configures a Server. The zero value is usable: every field has a
// serving-oriented default.
type Options struct {
	Warmup  uint64 // µops before measurement per simulation (default harness.DefaultWarmup)
	Measure uint64 // measured µops per simulation (default harness.DefaultMeasure)
	Workers int    // the session's worker slots, shared by all requests (<=0: GOMAXPROCS)

	MaxBatch       int           // max specs per batch-sync frame (default 4096)
	RequestTimeout time.Duration // per-request budget (default 2m)

	// StoreDir, when non-empty, attaches a persistent content-addressed
	// record store under the session memo: results survive restarts, and any
	// number of processes may share the directory. Empty: memory-only.
	StoreDir string

	// Metrics is the registry the server's instruments register on and
	// GET /metrics renders. Nil: the server builds a private registry, so
	// /metrics always works; pass one to share instruments with the
	// embedding process (the Runner facade does).
	Metrics *obs.Registry

	// TraceWriter, when non-nil, receives one NDJSON span per simulation
	// lifecycle stage (obs.Span; see DESIGN.md §10). The writer is wrapped
	// in a mutex by the tracer; an *os.File is fine.
	TraceWriter io.Writer

	// ShardID names this daemon within a fleet (vpserved -shard-id; the
	// daemon defaults it to the bound host:port). It is reported by
	// /v1/healthz and the /v1/statsz shard block so fleet probing and logs
	// can tell shards apart; empty is fine for a standalone server.
	ShardID string
}

// WithDefaults resolves every unset field to its serving default — the one
// place those defaults live. New applies it; cmd/vpserved calls it to log
// (and document) the values a zero-configured daemon actually runs with.
func (o Options) WithDefaults() Options {
	if o.Warmup == 0 {
		o.Warmup = harness.DefaultWarmup
	}
	if o.Measure == 0 {
		o.Measure = harness.DefaultMeasure
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4096
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Minute
	}
	return o
}

// Server is the simulation service: one process-lifetime Session, whose
// Workers slots bound every request's simulations, and the synchronous /v1
// HTTP API on top. Construct with New, serve it as an http.Handler, stop
// with Drain (finish everything first) or Close (cancel everything).
type Server struct {
	opts    Options
	session *harness.Session
	mux     *http.ServeMux
	metrics *serverMetrics
	baseCtx context.Context
	cancel  context.CancelFunc
	start   time.Time
	syncWG  sync.WaitGroup // in-flight requests admitted by runSync

	mu       sync.Mutex
	draining bool
}

// New builds a Server over a fresh session bounded to o.Workers slots. It
// starts no goroutine: each request walks its own specs (Session.Each). A
// non-empty o.StoreDir opens (creating if needed) the persistent record
// store the session keeps under its memo; an unusable directory is a
// construction error.
func New(o Options) (*Server, error) {
	o = o.WithDefaults()
	var st *store.Store
	if o.StoreDir != "" {
		var err error
		if st, err = store.Open(o.StoreDir, harness.StoreVersion); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	reg := o.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if o.TraceWriter != nil {
		tracer = obs.NewTracer(o.TraceWriter)
	}
	s := &Server{
		opts: o,
		session: harness.NewSession(harness.SessionConfig{
			Warmup:   o.Warmup,
			Measure:  o.Measure,
			Workers:  o.Workers,
			Store:    st,
			Observer: harness.NewObserver(reg, tracer),
		}),
		metrics: newServerMetrics(reg),
		start:   time.Now(),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.handle("POST /v1/simulate", "simulate", s.handleSimulate)
	s.handle("POST /v1/simulate/batch-sync", "batch_sync", s.handleBatchSync)
	s.handle("POST /v1/programs", "program_upload", s.handleProgramUpload)
	s.handle("GET /v1/programs", "programs", s.handleProgramList)
	s.handle("GET /v1/healthz", "healthz", s.handleHealthz)
	s.handle("GET /v1/statsz", "statsz", s.handleStatsz)
	s.handle("GET /metrics", "metrics", reg.Handler().ServeHTTP)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting work and waits until every in-flight request has
// answered. ctx bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.syncWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// Close cancels every in-flight request and waits for them to answer. A
// request returns only after its simulations have, so nothing outlives
// Close. Safe to call after Drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	s.syncWG.Wait()
	return nil
}

var errDraining = errors.New("server is draining; not accepting new work")

// apiError writes the uniform JSON error envelope — an APIError body whose
// code is derived from the HTTP status, so the typed client can rebuild the
// identical error value on the other side.
func apiError(w http.ResponseWriter, status int, format string, args ...any) {
	apiErrorCode(w, status, codeForStatus(status), format, args...)
}

// apiErrorCode is apiError with an explicit code, for the few errors whose
// code carries more than the status does (CodeUnknownProgram rides a 404).
func apiErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(APIError{
		Code: code,
		Msg:  fmt.Sprintf(format, args...),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// decodeBody reads a JSON request body (at most 16 MiB) into v under the
// API's strict rule: one value, no unknown field, nothing after it. The wire
// types take the read body in their own one-pass codecs, which keep that
// rule (through a json.Decoder they would be scanned twice); anything else
// streams through decodeStrict. Reports false after writing the 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, 16<<20)
	var err error
	if u, ok := v.(json.Unmarshaler); ok {
		var b []byte
		if b, err = io.ReadAll(body); err == nil {
			err = u.UnmarshalJSON(b)
		}
	} else {
		err = decodeStrict(body, v)
	}
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// handleProgramUpload registers a workload program with the daemon's session
// (POST /v1/programs). The body carries the program as binary encoding or
// text-assembly source; the response is its canonical workload id — content-
// addressed, so uploading the same bytes twice (from any client) is an
// idempotent no-op answering the same id.
func (s *Server) handleProgramUpload(w http.ResponseWriter, r *http.Request) {
	var req ProgramRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var p *isa.Program
	var err error
	switch {
	case len(req.Encoded) > 0 && req.Assembly != "":
		apiError(w, http.StatusBadRequest,
			"program request carries both encoded bytes and assembly source; send exactly one")
		return
	case len(req.Encoded) > 0:
		p, err = isa.Decode(req.Encoded)
	case req.Assembly != "":
		p, err = isa.Assemble(req.Name, []byte(req.Assembly))
	default:
		apiError(w, http.StatusBadRequest,
			"empty program request: send encoded bytes or assembly source")
		return
	}
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		apiError(w, http.StatusServiceUnavailable, "%v", errDraining)
		return
	}
	id, err := s.session.RegisterProgram(p)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ProgramInfo{
		ID: id, Name: p.Name, Insts: len(p.Insts), Bytes: len(p.Encode()),
	})
}

// handleProgramList answers GET /v1/programs with the registered programs in
// id order. Uploads that deduplicated onto a builtin kernel do not appear —
// they are the builtin.
func (s *Server) handleProgramList(w http.ResponseWriter, r *http.Request) {
	ids := s.session.ProgramIDs()
	out := make([]ProgramInfo, 0, len(ids))
	for _, id := range ids {
		p, ok := s.session.Program(id)
		if !ok {
			continue
		}
		out = append(out, ProgramInfo{
			ID: id, Name: p.Name, Insts: len(p.Insts), Bytes: len(p.Encode()),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// checkPrograms verifies every prog: reference in specs against the
// session's registry before admitting work, so a spec naming a program this
// daemon never received fails fast with the curable CodeUnknownProgram (the
// RemoteRunner reacts by uploading and retrying) instead of dying inside a
// simulation. Reports false after writing the error.
func (s *Server) checkPrograms(w http.ResponseWriter, specs ...harness.Spec) bool {
	for _, sp := range specs {
		if !harness.IsProgramRef(sp.Kernel) {
			continue
		}
		if s.session.HasProgram(sp.Kernel) {
			continue
		}
		if ids := s.session.ProgramIDs(); len(ids) > 0 {
			apiErrorCode(w, http.StatusNotFound, CodeUnknownProgram,
				"unknown program %q (uploaded: %s); POST /v1/programs to register it",
				sp.Kernel, strings.Join(ids, ", "))
		} else {
			apiErrorCode(w, http.StatusNotFound, CodeUnknownProgram,
				"unknown program %q: no programs uploaded to this daemon (POST /v1/programs first)",
				sp.Kernel)
		}
		return false
	}
	return true
}

// handleSimulate runs one spec synchronously (POST /v1/simulate): a
// one-spec frame through runSync, answered with the flattened Record.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SpecRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec, err := req.Spec()
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.checkPrograms(w, spec) {
		return
	}
	recs, _, err := s.runSync(r.Context(), []harness.Spec{spec})
	if err != nil {
		writeSyncError(w, "", err)
		return
	}
	writeJSON(w, http.StatusOK, recs[0])
}

// handleBatchSync runs a whole spec frame synchronously (POST
// /v1/simulate/batch-sync): the batched wire framing that amortizes one
// HTTP round trip over many specs. The response carries one record per
// requested spec, in request order. The frame is all-or-nothing: the first
// failing spec (in request order) fails the whole frame with the standard
// error envelope, mirroring the Batch contract's first-error abort — a
// fleet front retries the frame elsewhere.
func (s *Server) handleBatchSync(w http.ResponseWriter, r *http.Request) {
	specs, ok := s.decodeSpecs(w, r)
	if !ok {
		return
	}
	recs, failed, err := s.runSync(r.Context(), specs)
	if err != nil {
		prefix := ""
		if failed >= 0 {
			prefix = fmt.Sprintf("spec %d: ", failed)
		}
		writeSyncError(w, prefix, err)
		return
	}
	// Emit through the frame codec: the response bytes go straight to the
	// wire, skipping the encoder's compaction re-scan of the marshaled body.
	out, err := BatchSyncResponse{Records: recs}.MarshalJSON()
	if err != nil {
		apiError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
	w.Write([]byte{'\n'})
}

// decodeSpecs is the prelude of POST /v1/simulate/batch-sync: an empty
// frame is 400, one over MaxBatch 413, an invalid spec a "spec %d:" 400,
// then checkPrograms. Reports false after writing the error.
func (s *Server) decodeSpecs(w http.ResponseWriter, r *http.Request) ([]harness.Spec, bool) {
	var req BatchSyncRequest
	if !decodeBody(w, r, &req) {
		return nil, false
	}
	if len(req.Specs) == 0 {
		apiError(w, http.StatusBadRequest, "empty batch")
		return nil, false
	}
	if len(req.Specs) > s.opts.MaxBatch {
		apiError(w, http.StatusRequestEntityTooLarge,
			"batch of %d specs exceeds the %d-spec limit", len(req.Specs), s.opts.MaxBatch)
		return nil, false
	}
	specs := make([]harness.Spec, len(req.Specs))
	for i, sr := range req.Specs {
		sp, err := sr.Spec()
		if err != nil {
			apiError(w, http.StatusBadRequest, "spec %d: %v", i, err)
			return nil, false
		}
		specs[i] = sp
	}
	return specs, s.checkPrograms(w, specs...)
}

// runSync is the one synchronous core: admission (draining/syncWG) and the
// request budget around Session.Records, which answers warm specs inline
// and walks cold ones on the session's worker slots, bounded together with
// every other request's. It returns the records in request order, and only
// once Records' walkers have, so no simulation outlives its request. On
// failure it returns the index of the first failing spec in request order
// with that spec's error, or -1 when the request failed as a whole
// (draining, the budget expiring, or Close); the caller writes the envelope
// (writeSyncError).
func (s *Server) runSync(ctx context.Context, specs []harness.Spec) ([]harness.Record, int, error) {
	// The draining check and the syncWG.Add share one critical section:
	// Drain/Close set draining under s.mu before waiting on syncWG, so
	// every Add is either ordered before the flag flip (and thus seen by
	// the Wait) or never happens — the Add-from-zero-concurrent-with-Wait
	// case sync.WaitGroup forbids cannot occur.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, -1, errDraining
	}
	s.syncWG.Add(1)
	s.mu.Unlock()
	defer s.syncWG.Done()

	ctx, cancel := context.WithTimeout(ctx, s.opts.RequestTimeout)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel) // Close aborts sync work too
	defer stop()

	recs := make([]harness.Record, 0, len(specs))
	failed, err := s.session.Records(ctx, specs, func(rec harness.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, failed, err
	}
	return recs, -1, nil
}

// writeSyncError writes the envelope for a runSync failure, prefix first:
// 503 when the server refused the work, 504 when the budget expired (while
// queueing or waiting alike), 404 unknown_program for a workload the
// session cannot resolve — belt and braces behind checkPrograms, since the
// session never forgets a program — and 500 for anything else.
func writeSyncError(w http.ResponseWriter, prefix string, err error) {
	status, code := http.StatusInternalServerError, CodeInternal
	switch {
	case errors.Is(err, errDraining):
		status, code = http.StatusServiceUnavailable, CodeDraining
	case harness.IsContextErr(err):
		status, code = http.StatusGatewayTimeout, CodeTimeout
	case harness.IsUnknownWorkload(err):
		status, code = http.StatusNotFound, CodeUnknownProgram
	}
	apiErrorCode(w, status, code, "%s%v", prefix, err)
}

// handleHealthz answers 200 while serving and 503 once drain begins — the
// body carries {"draining":true} either way a client reads it, so both
// status-code probes (load balancers) and body-decoding probes (the fleet
// front) stop routing new work to a draining shard while its in-flight
// requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := Health{
		OK:       !draining,
		UptimeS:  time.Since(s.start).Seconds(),
		Draining: draining,
		ShardID:  s.opts.ShardID,
	}
	code := http.StatusOK
	if draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// Stats snapshots the observable server state (the /v1/statsz body).
func (s *Server) Stats() ServerStats {
	memo := s.session.MemoStats()
	slots := s.session.SlotStats()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	out := ServerStats{
		Workers:       s.opts.Workers,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		BusyWorkers:   slots.Busy,
		QueuedTasks:   slots.Queued,
		Coalesced:     slots.Joined,
		MemoHits:      memo.Hits,
		MemoMisses:    memo.Misses,
		MemoStoreHits: memo.StoreHits,
		Draining:      draining,
		Programs:      s.session.ProgramCount(),
		Shard: ShardInfo{
			ID:            s.opts.ShardID,
			StartUnix:     s.start.Unix(),
			UptimeSeconds: time.Since(s.start).Seconds(),
		},
		Limits: Limits{
			MaxBatch:         s.opts.MaxBatch,
			RequestTimeoutMs: s.opts.RequestTimeout.Milliseconds(),
			Warmup:           s.opts.Warmup,
			Measure:          s.opts.Measure,
		},
	}
	if st := s.session.Store(); st != nil {
		out.Store = &StoreStats{
			Dir:         st.Dir(),
			Hits:        memo.Store.Hits,
			Misses:      memo.Store.Misses,
			LoadErrors:  memo.Store.LoadErrors,
			Writes:      memo.Store.Writes,
			WriteErrors: memo.Store.WriteErrors,
		}
	}
	return out
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
