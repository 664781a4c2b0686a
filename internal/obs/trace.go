package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span stages, in lifecycle order. One simulation run emits one span-set:
// an admit span when the lookup takes ownership of the memo entry, a lookup
// span when the store below it is probed, warmup and measure spans when the
// simulator actually ran, and a publish span when the result lands
// (memoized, plus the store write-behind when a store is attached). Runs
// served entirely from the in-process memo emit no spans — the span stream
// records work performed, not lookups answered.
const (
	StageAdmit    = "admit"
	StageStore    = "store"
	StageWarmup   = "warmup"
	StageMeasure  = "measure"
	StagePublish  = "publish"
	StageDispatch = "dispatch" // runner-level: one backend round trip
)

// Cache tiers a stage can be served by.
const (
	TierMemo      = "memo"
	TierStore     = "store"
	TierSimulated = "simulated"
	TierLocal     = "local"  // dispatch: in-process backend
	TierRemote    = "remote" // dispatch: vpserved round trip
)

// Span is one NDJSON trace record: a stage of one run's lifecycle.
type Span struct {
	TS    string `json:"ts"`   // wall-clock stage end, RFC3339Nano
	Run   uint64 `json:"run"`  // links the spans of one run
	Spec  string `json:"spec"` // canonical spec identity
	Stage string `json:"stage"`
	// Tier is the cache tier that served the stage: which tier answered a
	// lookup, simulated for the warmup and measure phases, where a publish
	// landed.
	Tier string `json:"tier,omitempty"`
	// Outcome qualifies lookup stages: "hit" or "miss".
	Outcome string `json:"outcome,omitempty"`
	DurNS   int64  `json:"dur_ns"`
	Err     string `json:"err,omitempty"`
}

// Tracer serializes spans as NDJSON onto one writer. Safe for concurrent
// use; each Emit writes exactly one line. The zero value is not usable;
// construct with NewTracer. A nil *Tracer is a valid no-op receiver for
// Begin and Emit, so instrumented code paths need no nil checks.
type Tracer struct {
	mu      sync.Mutex
	enc     *json.Encoder
	nextRun atomic.Uint64
	now     func() time.Time
}

// NewTracer builds a tracer writing NDJSON spans to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{enc: json.NewEncoder(w), now: time.Now}
}

// Begin allocates the next run id (unique per tracer, starting at 1).
// A nil tracer returns 0.
func (t *Tracer) Begin() uint64 {
	if t == nil {
		return 0
	}
	return t.nextRun.Add(1)
}

// Emit writes one span, stamping TS if unset. A nil tracer drops it.
func (t *Tracer) Emit(s Span) {
	if t == nil {
		return
	}
	if s.TS == "" {
		s.TS = t.now().UTC().Format(time.RFC3339Nano)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.enc.Encode(s) // an unwritable trace sink must not fail the run
}
