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
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/store"
)

// Options configures a Server. The zero value is usable: every field has a
// serving-oriented default.
type Options struct {
	Warmup  uint64 // µops before measurement per simulation (default 50_000)
	Measure uint64 // measured µops per simulation (default 250_000)
	Workers int    // simulation workers shared by all requests (<=0: GOMAXPROCS)

	MaxJobs        int           // max unfinished jobs admitted (default 64)
	MaxBatch       int           // max specs per batch or experiment (default 4096)
	RequestTimeout time.Duration // synchronous endpoint budget (default 2m)

	// StoreDir, when non-empty, attaches a persistent content-addressed
	// record store under the session memo: results survive restarts, and any
	// number of processes may share the directory. Empty: memory-only.
	StoreDir string

	// FinishedJobRetention bounds how many terminal jobs stay queryable;
	// the oldest are evicted first (default 256). Active jobs are never
	// evicted.
	FinishedJobRetention int

	// Metrics is the registry the server's instruments register on and
	// GET /metrics renders. Nil: the server builds a private registry, so
	// /metrics always works; pass one to share instruments with the
	// embedding process (the Runner facade does).
	Metrics *obs.Registry

	// TraceWriter, when non-nil, receives one NDJSON span per simulation
	// lifecycle stage (obs.Span; see DESIGN.md §10). The writer is wrapped
	// in a mutex by the tracer; an *os.File is fine.
	TraceWriter io.Writer

	// SnapshotCap bounds the warm-state snapshot cache attached to the
	// session: 0 selects harness.DefaultSnapshotCap, negative disables the
	// cache. Snapshots skip the warmup phase of repeat specs
	// byte-identically (DESIGN.md §9).
	SnapshotCap int

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
		o.Warmup = 50_000
	}
	if o.Measure == 0 {
		o.Measure = 250_000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 64
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4096
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Minute
	}
	if o.FinishedJobRetention <= 0 {
		o.FinishedJobRetention = 256
	}
	return o
}

// Server is the simulation service: one process-lifetime Session, one
// bounded worker pool, an in-memory job store, and the /v1 HTTP API on top.
// Construct with New, serve it as an http.Handler, stop with Drain (finish
// everything first) or Close (cancel everything).
type Server struct {
	opts    Options
	session *harness.Session
	sched   *scheduler
	mux     *http.ServeMux
	metrics *serverMetrics
	baseCtx context.Context
	cancel  context.CancelFunc
	start   time.Time
	nextID  atomic.Uint64
	syncWG  sync.WaitGroup // in-flight synchronous simulations

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for retention and listing
	active   int      // jobs not yet in a terminal state
	draining bool
}

// New builds a Server and starts its worker pool. A non-empty o.StoreDir
// opens (creating if needed) the persistent record store and attaches it
// under the session memo; an unusable directory is a construction error.
func New(o Options) (*Server, error) {
	o = o.WithDefaults()
	s := &Server{
		opts:    o,
		session: harness.NewSession(o.Warmup, o.Measure),
		jobs:    make(map[string]*job),
		start:   time.Now(),
	}
	if o.StoreDir != "" {
		st, err := store.Open(o.StoreDir, harness.StoreVersion)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.session.UseStore(st)
	}
	if o.SnapshotCap >= 0 {
		s.session.UseSnapshots(harness.NewSnapshotCache(o.SnapshotCap))
	}
	reg := o.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.metrics = newServerMetrics(reg)
	var tracer *obs.Tracer
	if o.TraceWriter != nil {
		tracer = obs.NewTracer(o.TraceWriter)
	}
	s.session.Observe(harness.NewObserver(reg, tracer))
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.sched = newScheduler(s.session, o.Workers, s.metrics)
	s.mux = http.NewServeMux()
	s.handle("POST /v1/simulate", "simulate", s.handleSimulate)
	s.handle("POST /v1/simulate/batch-sync", "batch_sync", s.handleBatchSync)
	s.handle("POST /v1/batch", "batch", s.handleBatch)
	s.handle("POST /v1/programs", "program_upload", s.handleProgramUpload)
	s.handle("GET /v1/programs", "programs", s.handleProgramList)
	s.handle("GET /v1/experiments", "experiments", s.handleExperimentIndex)
	s.handle("POST /v1/experiments/{id}", "experiment", s.handleExperiment)
	s.handle("GET /v1/jobs", "jobs", s.handleJobList)
	s.handle("GET /v1/jobs/{id}", "job", s.handleJob)
	s.handle("DELETE /v1/jobs/{id}", "cancel", s.handleCancel)
	s.handle("GET /v1/jobs/{id}/stream", "stream", s.handleStream)
	s.handle("GET /v1/healthz", "healthz", s.handleHealthz)
	s.handle("GET /v1/statsz", "statsz", s.handleStatsz)
	s.handle("GET /metrics", "metrics", reg.Handler().ServeHTTP)
	return s, nil
}

// Registry exposes the metric registry the server's instruments live on —
// the one GET /metrics renders — so embedding processes (cmd/vpserved, the
// Runner facade) can register their own instruments beside it.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Session exposes the shared session (benchmarks and tests compare service
// results against direct harness runs).
func (s *Server) Session() *harness.Session { return s.session }

// Drain stops admitting work and waits until every job has reached a
// terminal state (in-flight jobs run to completion) and every in-flight
// synchronous request has answered. ctx bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	waiting := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		waiting = append(waiting, j)
	}
	s.mu.Unlock()
	for _, j := range waiting {
		select {
		case <-j.doneCh:
		case <-ctx.Done():
			return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
		}
	}
	syncDone := make(chan struct{})
	go func() {
		s.syncWG.Wait()
		close(syncDone)
	}()
	select {
	case <-syncDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// Close cancels every job and synchronous request, waits for them to
// settle, and stops the worker pool. Safe to call after Drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	waiting := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		waiting = append(waiting, j)
	}
	s.mu.Unlock()
	s.cancel()
	for _, j := range waiting {
		<-j.doneCh
	}
	s.syncWG.Wait()
	s.sched.close()
	return nil
}

func (s *Server) nextJobID() string {
	return fmt.Sprintf("j%06d", s.nextID.Add(1))
}

// admit registers a new job, enforcing the admission limits.
func (s *Server) admit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	if s.active >= s.opts.MaxJobs {
		return errQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.active++
	s.metrics.countJob(j.kind, StateQueued)
	s.metrics.jobsActive.Inc()
	return nil
}

// jobFinished updates admission accounting and evicts the oldest finished
// jobs beyond the retention bound.
func (s *Server) jobFinished() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	finished := len(s.jobs) - s.active
	if finished <= s.opts.FinishedJobRetention {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		terminal := terminalState(j.state)
		j.mu.Unlock()
		if terminal && finished > s.opts.FinishedJobRetention {
			delete(s.jobs, id)
			finished--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

var (
	errDraining  = errors.New("server is draining; not accepting new work")
	errQueueFull = errors.New("job queue full")
)

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

// admissionStatus maps an admission error to its HTTP status.
func admissionStatus(err error) int {
	if errors.Is(err, errDraining) {
		return http.StatusServiceUnavailable
	}
	return http.StatusTooManyRequests
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
// job. Reports false after writing the error.
func (s *Server) checkPrograms(w http.ResponseWriter, specs ...harness.Spec) bool {
	for _, sp := range specs {
		if !harness.IsProgramRef(sp.Kernel) {
			continue
		}
		if _, ok := s.session.Program(sp.Kernel); ok {
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

// decodeSpecs is the prelude of both spec-frame endpoints (POST /v1/batch
// and POST /v1/simulate/batch-sync): an empty frame is 400, one over
// MaxBatch 413, an invalid spec a "spec %d:" 400, then checkPrograms.
// Reports false after writing the error.
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

// runSync is the one synchronous core: it answers specs within the request
// budget and returns their records in request order. The specs plus their
// deduplicated baselines are planned like a job's; tasks already memoized
// are answered inline (Session.Peek counts the hit exactly as RunCtx
// would), so a fully warm request costs map lookups and never touches the
// worker pool, and only cold tasks fan through the scheduler. On failure it
// returns the index of the first failing spec in request order with that
// spec's error, or -1 when the request failed as a whole (draining, a
// refused submission, the budget expiring while waiting); the caller writes
// the envelope (writeSyncError).
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

	p := newPlan(specs)
	results := make([]*harness.Result, len(p.tasks))
	errs := make([]error, len(p.tasks))
	var cold []int
	for i, sp := range p.tasks {
		if res, err, ok := s.session.Peek(sp); ok {
			results[i], errs[i] = res, err
		} else {
			cold = append(cold, i)
		}
	}
	if len(cold) > 0 {
		sink := &syncSink{ctx: ctx, ch: make(chan syncDelivery, len(cold))}
		for _, i := range cold {
			if err := s.sched.submit(task{sink: sink, idx: i, spec: p.tasks[i]}); err != nil {
				return nil, -1, err
			}
		}
		for range cold {
			select {
			case d := <-sink.ch:
				results[d.idx], errs[d.idx] = d.res, d.err
			case <-ctx.Done():
				// The budget applies even while parked behind other work
				// (queued, or coalesced onto an in-flight run); the
				// cancelled context makes any late delivery a cheap drop.
				return nil, -1, ctx.Err()
			}
		}
	}
	recs := make([]harness.Record, len(specs))
	for i := range specs {
		err := errs[p.taskIdx[i]]
		if err == nil && p.baseIdx[i] >= 0 {
			err = errs[p.baseIdx[i]]
		}
		if err == nil {
			recs[i], err = s.session.Record(results[p.taskIdx[i]])
		}
		if err != nil {
			return nil, i, err
		}
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
	case errors.Is(err, errDraining), errors.Is(err, errSchedulerClosed):
		status, code = http.StatusServiceUnavailable, CodeDraining
	case harness.IsContextErr(err):
		status, code = http.StatusGatewayTimeout, CodeTimeout
	case harness.IsUnknownWorkload(err):
		status, code = http.StatusNotFound, CodeUnknownProgram
	}
	apiErrorCode(w, status, code, "%s%v", prefix, err)
}

// syncSink collects runSync's cold-task deliveries.
type syncSink struct {
	ctx context.Context
	ch  chan syncDelivery
}

type syncDelivery struct {
	idx int
	res *harness.Result
	err error
}

func (s *syncSink) taskCtx() context.Context { return s.ctx }
func (s *syncSink) deliver(idx int, res *harness.Result, err error) {
	s.ch <- syncDelivery{idx, res, err}
}

// handleBatch admits a batch job and answers 202 with its status.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if specs, ok := s.decodeSpecs(w, r); ok {
		s.startJob(w, r, "batch", "", specs)
	}
}

// handleExperiment admits a job for one §5.1 experiment id.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := harness.ExperimentByID(id)
	if !ok {
		var b strings.Builder
		for _, e := range harness.Experiments() {
			fmt.Fprintf(&b, "%s (%s); ", e.ID, e.Title)
		}
		apiError(w, http.StatusNotFound, "unknown experiment %q; available: %s", id, b.String())
		return
	}
	var specs []harness.Spec
	if e.Specs != nil {
		specs = e.Specs()
	}
	if len(specs) > s.opts.MaxBatch {
		apiError(w, http.StatusRequestEntityTooLarge,
			"experiment %q declares %d specs, exceeding the %d-spec limit", id, len(specs), s.opts.MaxBatch)
		return
	}
	s.startJob(w, r, "experiment", id, specs)
}

func (s *Server) startJob(w http.ResponseWriter, r *http.Request, kind, expID string, specs []harness.Spec) {
	j := s.newJob(kind, expID, specs)
	if err := s.admit(j); err != nil {
		j.cancel()
		apiError(w, admissionStatus(err), "%v", err)
		return
	}
	go j.run()
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		apiError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]*JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.statusLight() // listing stays light
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCancel cancels a job (idempotent: cancelling a finished job leaves
// it as it ended) and returns its current status.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	terminal := terminalState(j.state)
	j.mu.Unlock()
	if !terminal {
		j.cancelJob()
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleStream streams a job's events as NDJSON (one Event per line), or as
// SSE when the client asks for text/event-stream. Already-emitted events
// replay first; the stream ends after the "done" event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		apiError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)

	replay, live, unsub := j.subscribe()
	defer unsub()
	s.metrics.streamSubs.Inc()
	s.metrics.streamReplayed.Add(uint64(len(replay)))
	enc := json.NewEncoder(w)
	emit := func(ev Event) bool {
		if sse {
			fmt.Fprintf(w, "data: ")
		}
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if sse {
			fmt.Fprintf(w, "\n")
		}
		flusher.Flush()
		return ev.Type != "done"
	}
	for _, ev := range replay {
		if !emit(ev) {
			return
		}
	}
	for {
		select {
		case ev := <-live:
			if !emit(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleExperimentIndex(w http.ResponseWriter, r *http.Request) {
	var out []ExperimentInfo
	for _, e := range harness.Experiments() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz answers 200 while serving and 503 once drain begins — the
// body carries {"draining":true} either way a client reads it, so both
// status-code probes (load balancers) and body-decoding probes (the fleet
// front) stop routing new work to a draining shard while its in-flight jobs
// finish.
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
	s.mu.Lock()
	jobs := make(map[string]int)
	for _, j := range s.jobs {
		j.mu.Lock()
		jobs[j.state]++
		j.mu.Unlock()
	}
	active, draining := s.active, s.draining
	s.mu.Unlock()
	out := ServerStats{
		Workers:       s.opts.Workers,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		BusyWorkers:   int(s.sched.busy.Load()),
		QueuedTasks:   int(s.sched.queued.Load()),
		Coalesced:     s.sched.coalesced.Load(),
		MemoHits:      memo.Hits,
		MemoMisses:    memo.Misses,
		MemoStoreHits: memo.StoreHits,
		Jobs:          jobs,
		ActiveJobs:    active,
		Draining:      draining,
		Programs:      s.session.ProgramCount(),
		Shard: ShardInfo{
			ID:            s.opts.ShardID,
			StartUnix:     s.start.Unix(),
			UptimeSeconds: time.Since(s.start).Seconds(),
		},
		Limits: Limits{
			MaxJobs:          s.opts.MaxJobs,
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
	if s.session.Snapshots() != nil {
		snaps := memo.Snapshots
		out.Snapshots = &snaps
	}
	return out
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
