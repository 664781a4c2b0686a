// Package harness runs the paper's experiments: it wires kernels, value
// predictors, and machine configurations together, caches shared runs (the
// baseline machine appears in every figure), and renders each table and
// figure of the evaluation section as text, JSON, or CSV. The per-experiment
// index lives in DESIGN.md §5.
//
// A Session is safe for concurrent use: trace generation and simulation
// results are memoized behind a per-entry singleflight, so an identical Spec
// requested from many goroutines is simulated exactly once. The session also
// bounds simulation: a lookup that wins ownership of a memo entry takes one
// of Workers() slots before it reads the store or simulates, whoever the
// caller is, and Each walks a batch of specs over the slots (see
// parallel.go).
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// predictorDef is one constructible predictor configuration: its config
// name, the paper's label for it, and its constructor over confidence
// vector vec for a simulation of the prepared trace w, whose rows a
// history-reading predictor reads. maxHist overrides VTAGE's maximum
// history length (0: Table 1's); readsMaxHist marks the entries whose
// constructor reads it, and Spec.Validate rejects max_hist on every other.
type predictorDef struct {
	name, label  string
	readsMaxHist bool
	build        func(vec core.FPCVector, w *pipeline.Prepared, maxHist int) core.Predictor
}

// predictorSeed seeds every predictor's LFSR; a hybrid's second component
// takes predictorSeed+1.
const predictorSeed = 0xC0FFEE

// predictors is the one table of constructible predictors, in
// PredictorNames order. "ps" and "gdiff" are the extension predictors the
// paper references but does not evaluate in its figures (footnote 4 and
// Section 2).
var predictors = []predictorDef{
	{"none", "Baseline", false, func(core.FPCVector, *pipeline.Prepared, int) core.Predictor { return nil }},
	{"lvp", "LVP", false, func(vec core.FPCVector, _ *pipeline.Prepared, _ int) core.Predictor {
		return core.NewLVP(13, vec, predictorSeed)
	}},
	{"stride", "2D-Str", false, func(vec core.FPCVector, _ *pipeline.Prepared, _ int) core.Predictor {
		return core.NewStride2D(13, vec, predictorSeed)
	}},
	{"fcm", "o4-FCM", false, func(vec core.FPCVector, _ *pipeline.Prepared, _ int) core.Predictor {
		return core.NewFCM(4, 13, vec, predictorSeed)
	}},
	{"vtage", "VTAGE", true, newVTAGE},
	{"oracle", "Oracle", false, func(core.FPCVector, *pipeline.Prepared, int) core.Predictor { return &core.Oracle{} }},
	{"fcm+stride", "o4-FCM-2DStr", false, func(vec core.FPCVector, _ *pipeline.Prepared, _ int) core.Predictor {
		return core.NewHybrid(core.NewFCM(4, 13, vec, predictorSeed), core.NewStride2D(13, vec, predictorSeed+1))
	}},
	{"vtage+stride", "VTAGE-2DStr", true, func(vec core.FPCVector, w *pipeline.Prepared, maxHist int) core.Predictor {
		return core.NewHybrid(newVTAGE(vec, w, maxHist), core.NewStride2D(13, vec, predictorSeed+1))
	}},
	{"ps", "PS", false, func(vec core.FPCVector, w *pipeline.Prepared, _ int) core.Predictor {
		return core.NewPS(13, 13, vec, predictorSeed, w.PSRows())
	}},
	{"gdiff", "gDiff", false, func(vec core.FPCVector, _ *pipeline.Prepared, _ int) core.Predictor {
		return core.NewGDiff(13, vec, predictorSeed)
	}},
}

// newVTAGE is Table 1's VTAGE over vec, its maximum history length
// overridden when maxHist is non-zero, reading w's rows for that length.
func newVTAGE(vec core.FPCVector, w *pipeline.Prepared, maxHist int) core.Predictor {
	cfg := core.DefaultVTAGEConfig(vec)
	if maxHist != 0 {
		cfg.MaxHist = maxHist
	}
	return core.NewVTAGE(cfg, w.VTAGERows(cfg))
}

// PredictorNames lists the constructible predictor configurations.
var PredictorNames = func() []string {
	names := make([]string, len(predictors))
	for i, p := range predictors {
		names[i] = p.name
	}
	return names
}()

// lookupPredictor returns name's entry in the predictor table.
func lookupPredictor(name string) (*predictorDef, bool) {
	for i := range predictors {
		if predictors[i].name == name {
			return &predictors[i], true
		}
	}
	return nil, false
}

// buildPredictor constructs the named predictor (see predictorDef.build).
func buildPredictor(name string, vec core.FPCVector, w *pipeline.Prepared, maxHist int) (core.Predictor, error) {
	if p, ok := lookupPredictor(name); ok {
		return p.build(vec, w, maxHist), nil
	}
	return nil, fmt.Errorf("harness: unknown predictor %q", name)
}

// NewPredictor constructs the named predictor with confidence vector vec
// for a simulation of the prepared trace w. "none" returns nil (the
// baseline machine).
func NewPredictor(name string, vec core.FPCVector, w *pipeline.Prepared) (core.Predictor, error) {
	return buildPredictor(name, vec, w, 0)
}

// DisplayName maps predictor config names to the paper's labels.
func DisplayName(name string) string {
	if p, ok := lookupPredictor(name); ok {
		return p.label
	}
	return name
}

// Counters selects the confidence scheme of a run.
type Counters int

const (
	// BaselineCounters are plain 3-bit saturating counters (Fig. 4a/5a).
	BaselineCounters Counters = iota
	// FPC uses the paper's forward probabilistic counters, matched to the
	// recovery mechanism (7-bit-equivalent for squash, 6-bit for reissue).
	FPC
)

func (c Counters) String() string {
	if c == FPC {
		return "FPC"
	}
	return "baseline"
}

// MarshalText implements encoding.TextMarshaler with the wire's and the
// CLIs' spelling: "fpc" for FPC, "baseline" otherwise (records keep
// String's "FPC").
func (c Counters) MarshalText() ([]byte, error) {
	if c == FPC {
		return []byte("fpc"), nil
	}
	return []byte("baseline"), nil
}

// UnmarshalText implements encoding.TextUnmarshaler and is the one parser of
// the spelling: "baseline" or "fpc" (or String's "FPC"), and "" for the
// default, baseline.
func (c *Counters) UnmarshalText(b []byte) error {
	switch string(b) {
	case "", "baseline":
		*c = BaselineCounters
	case "fpc", "FPC":
		*c = FPC
	default:
		return fmt.Errorf("unknown counters %q (have baseline, fpc)", b)
	}
	return nil
}

// Vector returns the probability vector for the counter scheme under the
// given recovery mechanism, following Section 5.
func (c Counters) Vector(rec pipeline.RecoveryMode) core.FPCVector {
	if c == BaselineCounters {
		return core.FPCBaseline
	}
	if rec == pipeline.SelectiveReissue {
		return core.FPCReissue
	}
	return core.FPCCommit
}

// Spec identifies one simulation run. Beyond the four classic fields it
// carries an optional canonical machine/predictor-parameter key, so every
// simulation the repo can run — including the sensitivity ablations — is a
// memoizable, schedulable value. Zero values mean "the paper's default", so
// pre-existing four-field specs keep their identity (and memo entries).
//
// Its encoding/json form is the wire's spec object (DESIGN.md §6.1):
// Counters and Recovery travel as their text spellings, and every field
// after Predictor is omitted at its default.
type Spec struct {
	Kernel    string                `json:"kernel"`
	Predictor string                `json:"predictor"`
	Counters  Counters              `json:"counters,omitempty"`
	Recovery  pipeline.RecoveryMode `json:"recovery,omitempty"`

	// Width overrides the machine's fetch/dispatch/issue/retire width.
	// 0 means Table 2's 8-wide machine.
	Width int `json:"width,omitempty"`
	// LoadsOnly restricts value prediction to load µops (the classic
	// load-value-prediction deployment the paper argues against, §7.2).
	LoadsOnly bool `json:"loads_only,omitempty"`
	// MaxHist overrides VTAGE's maximum history length (vtage-family
	// predictors only). 0 means Table 1's 64.
	MaxHist int `json:"max_hist,omitempty"`
	// FPCVec, when non-empty, is an explicit FPC probability vector in
	// FormatFPCVector form ("0,2,2,2,2,3,3") that replaces the vector
	// Counters.Vector(Recovery) would derive. Canonical specs keep Counters
	// zero when FPCVec is set.
	FPCVec string `json:"fpc_vector,omitempty"`

	// Program, when non-empty, names the workload by its content-addressed
	// program reference ("prog:<sha256>", from Session.RegisterProgram)
	// instead of a builtin kernel. Canonical() folds it into Kernel — the
	// workload field the memo and store keys use — so a spec may
	// set either field; setting both to different workloads is invalid.
	Program string `json:"program,omitempty"`
}

// defaultWidth is Table 2's machine width; defaultMaxHist is Table 1's
// VTAGE maximum history length. Canonical() folds explicit mentions of
// either back to the zero value so equivalent specs share one memo entry.
var (
	defaultWidth   = pipeline.DefaultConfig().FetchWidth
	defaultMaxHist = core.DefaultVTAGEConfig(core.FPCBaseline).MaxHist
)

// FormatFPCVector renders a probability vector in the canonical wire form
// accepted by ParseFPCVector and Spec.FPCVec: shift values joined by commas.
func FormatFPCVector(v core.FPCVector) string {
	var b strings.Builder
	for i, s := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(s)))
	}
	return b.String()
}

// ParseFPCVector parses the canonical vector form ("0,4,4,4,4,5,5"): exactly
// core.ConfMax comma-separated shift values, each at most 31 (TakeProb's
// word-wide LFSR bound).
func ParseFPCVector(s string) (core.FPCVector, error) {
	var v core.FPCVector
	parts := strings.Split(s, ",")
	if len(parts) != len(v) {
		return v, fmt.Errorf("harness: FPC vector %q has %d entries, want %d", s, len(parts), len(v))
	}
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 || n > 31 {
			return v, fmt.Errorf("harness: FPC vector %q entry %d: want a shift in 0..31", s, i)
		}
		v[i] = uint8(n)
	}
	return v, nil
}

// Canonical returns the spec in canonical form — the one identity the memo
// (and with it the coalescing of identical in-flight runs), the store and
// the structured Record layer key on. Equivalent configurations fold together:
//
//   - Width equal to the default machine width becomes 0, MaxHist equal to
//     VTAGE's default becomes 0;
//   - an explicit FPCVec is re-rendered in canonical form; if a named
//     counter scheme derives the same vector under this recovery mode, the
//     spec folds onto that scheme (so an explicit FPCCommit under squash is
//     the FPC spec the figures memoize), and otherwise Counters is zeroed —
//     the vector wins;
//   - the baseline machine (predictor "none") sheds every predictor-only
//     field (Counters, LoadsOnly, MaxHist, FPCVec) but keeps Width: a
//     narrow machine's baseline is the narrow machine;
//   - a program reference moves from Program into Kernel, the one workload
//     field everything keys on (prog: references and builtin kernel names
//     are disjoint, so the merge is unambiguous).
//
// Unparseable FPCVec values and Kernel/Program conflicts are left untouched
// for Validate to report.
func (s Spec) Canonical() Spec {
	if s.Program != "" && (s.Kernel == "" || s.Kernel == s.Program) {
		s.Kernel, s.Program = s.Program, ""
	}
	if s.Width == defaultWidth {
		s.Width = 0
	}
	if s.MaxHist == defaultMaxHist {
		s.MaxHist = 0
	}
	if s.FPCVec != "" {
		if v, err := ParseFPCVector(s.FPCVec); err == nil {
			switch v {
			case BaselineCounters.Vector(s.Recovery):
				s.Counters = BaselineCounters
				s.FPCVec = ""
			case FPC.Vector(s.Recovery):
				s.Counters = FPC
				s.FPCVec = ""
			default:
				s.FPCVec = FormatFPCVector(v)
				s.Counters = BaselineCounters
			}
		}
	}
	if s.Predictor == "none" {
		s.Counters = BaselineCounters
		s.LoadsOnly = false
		s.MaxHist = 0
		s.FPCVec = ""
	}
	return s
}

// Validate checks the spec against the constructible configuration space;
// the service layer rejects invalid wire specs with it before scheduling,
// and simulate applies it so direct harness users get the same errors.
func (s Spec) Validate() error {
	workload := s.Kernel
	if s.Program != "" {
		if s.Kernel != "" && s.Kernel != s.Program {
			return fmt.Errorf("harness: spec names both kernel %q and program %q; set one workload", s.Kernel, s.Program)
		}
		workload = s.Program
	}
	if IsProgramRef(workload) {
		if err := checkProgramRef(workload); err != nil {
			return err
		}
	} else if _, ok := kernels.ByName(workload); !ok {
		return fmt.Errorf("harness: unknown kernel %q (builtin kernels: %s; registered programs are referenced as prog:<sha256>)",
			workload, strings.Join(kernels.Names(), ", "))
	}
	pred, ok := lookupPredictor(s.Predictor)
	if !ok {
		return fmt.Errorf("harness: unknown predictor %q (have %v)", s.Predictor, PredictorNames)
	}
	if s.Counters != BaselineCounters && s.Counters != FPC {
		return fmt.Errorf("harness: unknown counters %d (have baseline, fpc)", s.Counters)
	}
	if s.Recovery != pipeline.SquashAtCommit && s.Recovery != pipeline.SelectiveReissue {
		return fmt.Errorf("harness: unknown recovery %d (have squash, reissue)", s.Recovery)
	}
	if s.Width < 0 || s.Width > 16 {
		return fmt.Errorf("harness: machine width %d out of range 1..16", s.Width)
	}
	if s.MaxHist != 0 {
		if !pred.readsMaxHist {
			return fmt.Errorf("harness: max_hist applies to vtage-family predictors, not %q", s.Predictor)
		}
		if s.MaxHist < 2 || s.MaxHist > 1024 {
			return fmt.Errorf("harness: max history %d out of range 2..1024", s.MaxHist)
		}
	}
	if s.FPCVec != "" {
		if _, err := ParseFPCVector(s.FPCVec); err != nil {
			return err
		}
	}
	return nil
}

// vector resolves the confidence vector of the run: the explicit FPCVec
// when set, otherwise the scheme Counters and Recovery select.
func (s Spec) vector() (core.FPCVector, error) {
	if s.FPCVec == "" {
		return s.Counters.Vector(s.Recovery), nil
	}
	return ParseFPCVector(s.FPCVec)
}

// config builds the machine configuration the spec describes.
func (s Spec) config() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Recovery = s.Recovery
	cfg.PredictLoadsOnly = s.LoadsOnly
	if s.Width > 0 {
		cfg.FetchWidth = s.Width
		cfg.DispatchWidth = s.Width
		cfg.IssueWidth = s.Width
		cfg.RetireWidth = s.Width
	}
	return cfg
}

// newPredictor constructs the spec's predictor for a simulation of w,
// honouring the extended key (explicit vector, VTAGE history override).
func (s Spec) newPredictor(w *pipeline.Prepared) (core.Predictor, error) {
	vec, err := s.vector()
	if err != nil {
		return nil, err
	}
	return buildPredictor(s.Predictor, vec, w, s.MaxHist)
}

// Baseline returns the no-VP spec this spec's speedup is measured against:
// same kernel, recovery mode and machine width, predictor "none".
func (s Spec) Baseline() Spec {
	return Spec{Kernel: s.Kernel, Predictor: "none", Recovery: s.Recovery, Width: s.Width}
}

// Result is the outcome of one run.
type Result struct {
	Spec  Spec
	Stats pipeline.Stats
}

// traceCall is a singleflight slot for one kernel's trace: the goroutine
// that created the slot generates and prepares the trace (its TAGE lookups
// included, pipeline.Prepare); everyone else waits on done.
type traceCall struct {
	done chan struct{}
	tr   *pipeline.Prepared
	err  error
}

// fpCall is the equivalent singleflight slot for one builtin workload's
// fingerprint (store keys).
type fpCall struct {
	done chan struct{}
	fp   string
	ok   bool
}

// runCall is the equivalent singleflight slot for one simulation result.
type runCall struct {
	done chan struct{}
	res  *Result
	err  error
}

// DefaultWarmup and DefaultMeasure are the windows a runner, a daemon or a
// command line uses when none is given: µops of warmup, then measured µops,
// per simulation. They stand in for the paper's 50M+50M SimPoint windows
// at interactive cost.
const (
	DefaultWarmup  = 50_000
	DefaultMeasure = 250_000
)

// SessionConfig is a Session's whole configuration, fixed by NewSession.
type SessionConfig struct {
	Warmup  uint64 // µops before measurement per simulation
	Measure uint64 // measured µops per simulation
	// Workers bounds the session's concurrent runs across every caller of
	// RunCtx (<= 0: GOMAXPROCS).
	Workers int
	// Store, when non-nil, is the persistent record tier under the memo:
	// an owner reads it through before simulating and writes clean
	// successes behind. Cancellations and errors are never persisted,
	// mirroring the memo's own invariant.
	Store *store.Store
	// Observer, when non-nil, receives the session's metrics and run
	// spans from its first lookup on.
	Observer *Observer
}

// Session runs experiments with shared settings and memoized results. It is
// safe for concurrent use: identical Specs (and kernel traces) are simulated
// exactly once even when requested from many goroutines. The zero value is
// not usable; construct with NewSession.
type Session struct {
	// Fixed by NewSession and only read afterwards.
	warmup, measure uint64
	slots           chan struct{} // one token per owner reading the store or simulating
	store           *store.Store  // optional persistent tier under the memo
	obs             *Observer     // optional metrics + run tracing

	mu        sync.Mutex // guards the maps and counters; never held while simulating
	traces    map[string]*traceCall
	memo      map[Spec]*runCall
	hits      uint64 // RunCtx lookups that joined an existing (possibly in-flight) entry
	misses    uint64 // RunCtx lookups that started a simulation
	storeHits uint64 // RunCtx lookups served by loading a persisted record
	joined    uint64 // hits that joined a run still in flight

	waiting atomic.Int64 // owners blocked on a slot

	fps   map[string]*fpCall      // builtin workload → fingerprint, computed once per session
	progs map[string]*isa.Program // registered programs by prog:<sha256> reference
}

// NewSession builds a session from its whole configuration. The windows
// stand in for the paper's 50M-warmup/50M-measure SimPoint methodology.
func NewSession(c SessionConfig) *Session {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return &Session{
		warmup:  c.Warmup,
		measure: c.Measure,
		slots:   make(chan struct{}, c.Workers),
		store:   c.Store,
		obs:     c.Observer,
		traces:  make(map[string]*traceCall),
		memo:    make(map[Spec]*runCall),
		fps:     make(map[string]*fpCall),
	}
}

// Workers reports the session's bound on concurrent runs.
func (se *Session) Workers() int { return cap(se.slots) }

// SlotStats is a snapshot of the session's worker slots.
type SlotStats struct {
	Busy   int    // slots held: owners reading the store or simulating
	Queued int    // owners waiting for a slot
	Joined uint64 // lookups that joined a run still in flight, holding no slot
}

// SlotStats reports how the session's worker slots are used.
func (se *Session) SlotStats() SlotStats {
	se.mu.Lock()
	defer se.mu.Unlock()
	return SlotStats{Busy: len(se.slots), Queued: int(se.waiting.Load()), Joined: se.joined}
}

// trace returns the workload's prepared instruction trace, generating and
// preparing it on first use. The workload is a builtin kernel name or a
// registered program reference; concurrent requests for the same workload
// share one generation. ctx aborts only this caller's wait: the generation
// itself always runs to completion, because a trace is workload-wide shared
// state every future run will want.
func (se *Session) trace(ctx context.Context, workload string) (*pipeline.Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	se.mu.Lock()
	c, ok := se.traces[workload]
	if ok {
		se.mu.Unlock()
		select {
		case <-c.done:
			return c.tr, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c = &traceCall{done: make(chan struct{})}
	se.traces[workload] = c
	p, ok := se.progs[workload]
	se.mu.Unlock()

	if !ok {
		if k, found := kernels.ByName(workload); found {
			p, ok = k.Build(), true
		}
	}
	if ok {
		c.tr = pipeline.Prepare(emu.Trace(p, int(se.warmup+se.measure)))
	} else {
		// Unresolvable today is not unresolvable forever: registering the
		// program cures it, so drop the slot instead of caching the failure.
		c.err = se.unknownWorkloadError(workload)
		se.mu.Lock()
		delete(se.traces, workload)
		se.mu.Unlock()
	}
	close(c.done)
	return c.tr, c.err
}

// IsContextErr reports whether err is (or wraps) a cancellation or deadline
// error — caller state, not a property of the spec. The session uses it to
// decide what not to memoize; the service layer uses the same predicate to
// classify request outcomes, so the two can never drift.
func IsContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunCtx simulates spec (memoized) and returns its result. Concurrent calls
// with the same spec share one simulation; errors are memoized too.
//
// ctx aborts waiting on another goroutine's in-flight simulation, waiting
// for a worker slot, and the simulation loop itself (the loop checks the
// context every cancelChunk committed µops, so a cancelled caller stops
// burning CPU promptly). A run abandoned by cancellation is not memoized:
// its memo entry is removed before waiters wake, so the next request
// re-simulates, and goroutines that joined the abandoned entry with a live
// context of their own transparently retry; the first to retry becomes the
// new owner.
//
// Only an owner holds a worker slot (see own); a lookup that joins an
// existing entry, finished or in flight, waits without one.
//
// The spec is canonicalized first (see Spec.Canonical), so equivalent
// configurations share one memo entry no matter how the caller spelled them.
func (se *Session) RunCtx(ctx context.Context, spec Spec) (*Result, error) {
	spec = spec.Canonical()
	var start time.Time
	if se.obs != nil {
		start = time.Now()
	}
	counted := false
	for {
		se.mu.Lock()
		c, ok := se.memo[spec]
		if ok {
			if !counted {
				se.hits++
				counted = true
				select {
				case <-c.done:
				default:
					se.joined++
					se.obs.countJoin()
				}
			}
			se.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if c.err == nil || !IsContextErr(c.err) {
				se.obs.countMemo(true, 1) // served from an in-process entry
				return c.res, c.err
			}
			// The owner abandoned this entry (and deleted it). Retry under
			// our own context unless we were cancelled too.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue
		}
		if counted {
			// A retry after an abandoned owner becomes the new owner after
			// all: uncount the earlier hit; own recounts this lookup exactly
			// once (as a store hit or a miss), so hits+storeHits+misses
			// still equals the number of RunCtx calls.
			se.hits--
		}
		c = &runCall{done: make(chan struct{})}
		se.memo[spec] = c
		se.mu.Unlock()

		// This lookup took ownership: a memo miss, and the start of one
		// run's trace span-set (admit → tier lookups → phases → publish).
		return se.own(ctx, spec, c, se.obs.beginRun(spec, start))
	}
}

// own produces spec's outcome as the owner of memo entry c and publishes it
// to c's waiters. It takes a worker slot first and holds it through the
// store read-through, the simulation and the write-behind, so at most
// Workers() owners do any of them at once across every caller. An owner
// cancelled while it waits for a slot ends like a cancelled run: it counts
// its miss and unpublishes c.
func (se *Session) own(ctx context.Context, spec Spec, c *runCall, rt *runRec) (*Result, error) {
	if err := se.acquire(ctx); err != nil {
		se.mu.Lock()
		se.misses++
		delete(se.memo, spec)
		se.mu.Unlock()
		c.err = err
		close(c.done)
		return nil, err
	}
	defer se.release()

	// Read-through: a populated store turns this would-be miss into a
	// disk load. Waiters parked on c still count as plain memo hits.
	if se.store != nil {
		t0 := time.Now()
		res, ok := se.storeLoad(spec)
		rt.lookup(obs.StageStore, obs.TierStore, ok, time.Since(t0))
		se.obs.countStore(ok)
		if ok {
			se.mu.Lock()
			se.storeHits++
			se.mu.Unlock()
			c.res = res
			// The disk record is promoted into the memo; no simulation
			// phases ran, so the span-set goes straight to publish.
			rt.span(obs.StagePublish, obs.TierMemo, "", 0, nil)
			close(c.done)
			return c.res, nil
		}
	}
	se.mu.Lock()
	se.misses++
	se.mu.Unlock()

	c.res, c.err = se.simulate(ctx, spec, rt)
	if c.err != nil && (IsContextErr(c.err) || IsUnknownWorkload(c.err)) {
		// Abandoned (caller state) or not-yet-registered (session state):
		// either way the next request may succeed, so nothing is published.
		se.mu.Lock()
		delete(se.memo, spec)
		se.mu.Unlock()
	} else if c.err == nil && se.store != nil {
		// Write-behind: persist only clean successes — cancellations and
		// errors are never stored, mirroring the memo invariant.
		t0 := time.Now()
		se.storeSave(spec, c.res)
		rt.span(obs.StagePublish, obs.TierStore, "", time.Since(t0), nil)
	} else {
		rt.span(obs.StagePublish, obs.TierMemo, "", 0, c.err)
	}
	close(c.done)
	return c.res, c.err
}

// acquire takes one of the session's worker slots for an owner. While
// every slot is held the owner waits, counted as queued; blocked owners get
// slots in arrival order (a channel wakes blocked senders first in, first
// out). ctx aborts the wait.
func (se *Session) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var t0 time.Time
	if se.obs != nil {
		t0 = time.Now()
	}
	select {
	case se.slots <- struct{}{}:
	default:
		se.waiting.Add(1)
		defer se.waiting.Add(-1)
		select {
		case se.slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	se.obs.slotTaken(t0)
	return nil
}

// release returns a slot taken by acquire.
func (se *Session) release() {
	<-se.slots
	se.obs.slotFreed()
}

// peek returns the canonical spec's memoized outcome without blocking and
// without starting any work: it hits only when a completed in-process memo
// entry already exists. An in-flight entry, an absent entry, or one
// abandoned by cancellation all report !ok, and Records walks the task
// through RunCtx instead. A hit counts in MemoStats exactly like a RunCtx
// memo hit, so "one bucket per lookup" holds no matter which door served
// it.
func (se *Session) peek(spec Spec) (res *Result, err error, ok bool) {
	se.mu.Lock()
	defer se.mu.Unlock()
	c, found := se.memo[spec]
	if !found {
		return nil, nil, false
	}
	select {
	case <-c.done:
	default:
		return nil, nil, false // still simulating; peek never waits
	}
	if c.err != nil && IsContextErr(c.err) {
		return nil, nil, false
	}
	se.hits++
	se.obs.countMemo(true, 1)
	return c.res, c.err, true
}

// simulate performs one uncached run. The trace lookup is itself
// singleflighted, so concurrent first runs of one kernel build its trace once.
func (se *Session) simulate(ctx context.Context, spec Spec, rt *runRec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tr, err := se.trace(ctx, spec.Kernel)
	if err != nil {
		return nil, err
	}
	pred, err := spec.newPredictor(tr)
	if err != nil {
		return nil, err
	}
	sim := pipeline.New(spec.config(), tr, pred)
	rt.countSimulation()
	st, err := se.runCancellable(ctx, sim, uint64(len(tr.Trace().Uops)), rt)
	if err != nil {
		return nil, fmt.Errorf("%s/%s/%s/%s: %w",
			spec.Kernel, spec.Predictor, spec.Counters, spec.Recovery, err)
	}
	return &Result{Spec: spec, Stats: *st}, nil
}

// cancelChunk is the µop granularity at which a cancellable simulation
// checks its context between Advance calls: small enough that a cancelled
// request frees its worker within a few milliseconds, large enough that the
// per-chunk bookkeeping is invisible next to the simulate loop.
const cancelChunk = 25_000

// runCancellable produces the exact machine state sim.Run(warmup, measure)
// would: Advance targets absolute commit counts and pausing between cycles
// is state-neutral, so chunking changes nothing but the cancellation
// latency. The warmup window runs in one piece (Run must set the
// measurement boundary itself); cancellation granularity during measurement
// is cancelChunk µops. Observed runs (rt != nil) time the two phases
// separately without perturbing the records.
func (se *Session) runCancellable(ctx context.Context, sim *pipeline.Sim, traceLen uint64, rt *runRec) (*pipeline.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := se.warmup + se.measure
	if total > traceLen {
		total = traceLen
	}
	t0 := time.Now()
	st, err := sim.Run(se.warmup, 0)
	if err != nil {
		return nil, err
	}
	rt.phase(obs.StageWarmup, time.Since(t0))
	t0 = time.Now()
	for st.Committed < total {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := total - st.Committed
		if n > cancelChunk {
			n = cancelChunk
		}
		if st, err = sim.Advance(n); err != nil {
			return nil, err
		}
	}
	rt.phase(obs.StageMeasure, time.Since(t0))
	return st, nil
}

// MemoStats is a snapshot of the session's caching effectiveness. Every
// RunCtx lookup lands in exactly one bucket, so Hits+StoreHits+Misses equals
// the total number of RunCtx calls.
type MemoStats struct {
	Hits      uint64 `json:"hits"`       // served from (or joined to) an in-process memo entry
	StoreHits uint64 `json:"store_hits"` // served by loading a persisted record instead of simulating
	Misses    uint64 `json:"misses"`     // simulations actually started

	Store store.Stats `json:"store"` // attached store's own counters (zero when no store)
}

// MemoStats reports memo and store effectiveness.
func (se *Session) MemoStats() MemoStats {
	se.mu.Lock()
	defer se.mu.Unlock()
	m := MemoStats{Hits: se.hits, StoreHits: se.storeHits, Misses: se.misses}
	if se.store != nil {
		m.Store = se.store.Stats()
	}
	return m
}

// AMean returns the arithmetic mean.
func AMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum element (0 for empty input).
func Max(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// KernelNames returns all kernels in Table 3 order.
func KernelNames() []string { return kernels.Names() }
