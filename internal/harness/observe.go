package harness

import (
	"time"

	"repro/internal/obs"
)

// Observer is the session's connection to the observability layer: metric
// instruments registered on an obs.Registry plus an optional run-lifecycle
// tracer. Give one to NewSession (SessionConfig.Observer); any number of
// sessions may share one Observer (its instruments are concurrency-safe),
// and a nil Observer (or a nil field inside one) is always a no-op, so
// instrumented paths need no conditionals.
//
// Metric semantics (DESIGN.md §10): the lookup counters count *served*
// lookups by the tier that answered them — a memo "hit" is a lookup
// answered from (or coalesced onto) an in-process entry, a memo "miss" is
// a lookup that took ownership and had to go below the memo; store
// hits/misses count probes of the store by owners. They are
// deliberately not identical to MemoStats, which counts lookups at entry
// (a waiter cancelled mid-join counts there but produced nothing here).
type Observer struct {
	tracer *obs.Tracer

	memoHits, memoMisses   *obs.Counter
	storeHits, storeMisses *obs.Counter
	simulations            *obs.Counter
	warmupSeconds          *obs.Histogram
	measureSeconds         *obs.Histogram
	queueWaitSeconds       *obs.Histogram // owner's wait for a worker slot
	busyWorkers            *obs.Gauge     // worker slots held
	joins                  *obs.Counter   // lookups that joined a run in flight
}

// NewObserver builds an observer registering the session's instruments on
// reg (nil: trace-only) and emitting run spans to tracer (nil: metrics-only).
func NewObserver(reg *obs.Registry, tracer *obs.Tracer) *Observer {
	o := &Observer{tracer: tracer}
	if reg != nil {
		lookups := reg.CounterVec("repro_cache_lookups_total",
			"Simulation-result cache lookups by tier (memo, store) and outcome.",
			"tier", "result")
		o.memoHits = lookups.With(obs.TierMemo, "hit")
		o.memoMisses = lookups.With(obs.TierMemo, "miss")
		o.storeHits = lookups.With(obs.TierStore, "hit")
		o.storeMisses = lookups.With(obs.TierStore, "miss")
		o.simulations = reg.Counter("repro_simulations_total",
			"Simulations actually executed (memo misses not served by the persistent store).")
		phase := reg.HistogramVec("repro_simulate_phase_seconds",
			"Wall time of one simulation phase: warmup, or measure.",
			nil, "phase")
		o.warmupSeconds = phase.With("warmup")
		o.measureSeconds = phase.With("measure")
		o.queueWaitSeconds = reg.Histogram("repro_sched_queue_wait_seconds",
			"Delay from a lookup winning ownership of a memo entry to it taking a worker slot.", nil)
		o.joins = reg.Counter("repro_sched_coalesced_total",
			"Lookups that joined an identical run in flight instead of taking a worker slot.")
		o.busyWorkers = reg.Gauge("repro_sched_busy_workers",
			"Worker slots held: runs reading the store or simulating.")
	}
	return o
}

func (o *Observer) countMemo(hit bool, n uint64) {
	if o == nil {
		return
	}
	c := o.memoMisses
	if hit {
		c = o.memoHits
	}
	if c != nil {
		c.Add(n)
	}
}

func (o *Observer) countStore(hit bool) {
	if o == nil {
		return
	}
	c := o.storeMisses
	if hit {
		c = o.storeHits
	}
	if c != nil {
		c.Inc()
	}
}

func (o *Observer) countSimulation() {
	if o != nil && o.simulations != nil {
		o.simulations.Inc()
	}
}

// slotTaken records an owner taking a worker slot it started waiting for
// at t0.
func (o *Observer) slotTaken(t0 time.Time) {
	if o == nil || o.queueWaitSeconds == nil {
		return
	}
	o.queueWaitSeconds.Observe(time.Since(t0).Seconds())
	o.busyWorkers.Inc()
}

// slotFreed records an owner giving its worker slot back.
func (o *Observer) slotFreed() {
	if o != nil && o.busyWorkers != nil {
		o.busyWorkers.Dec()
	}
}

func (o *Observer) countJoin() {
	if o != nil && o.joins != nil {
		o.joins.Inc()
	}
}

// beginRun opens one run's span-set: called when a lookup takes ownership
// of a memo entry (a memo miss). start is the lookup's entry time; the
// admit span covers everything between entering RunCtx and winning
// ownership (including waits on abandoned entries).
func (o *Observer) beginRun(spec Spec, start time.Time) *runRec {
	if o == nil {
		return nil
	}
	o.countMemo(false, 1)
	rt := &runRec{o: o, spec: spec.Identity()}
	if o.tracer != nil {
		rt.id = o.tracer.Begin()
		rt.span(obs.StageAdmit, obs.TierMemo, "miss", time.Since(start), nil)
	}
	return rt
}

// runRec carries one run's trace identity through the simulate path. All
// methods are nil-receiver-safe: an unobserved session passes nil all the
// way down.
type runRec struct {
	o    *Observer
	id   uint64
	spec string
}

// countSimulation bumps the executed-simulations counter for this run.
func (rt *runRec) countSimulation() {
	if rt != nil {
		rt.o.countSimulation()
	}
}

// span emits one trace span (no-op without a tracer).
func (rt *runRec) span(stage, tier, outcome string, d time.Duration, err error) {
	if rt == nil || rt.o == nil || rt.o.tracer == nil {
		return
	}
	s := obs.Span{
		Run:     rt.id,
		Spec:    rt.spec,
		Stage:   stage,
		Tier:    tier,
		Outcome: outcome,
		DurNS:   d.Nanoseconds(),
	}
	if err != nil {
		s.Err = err.Error()
	}
	rt.o.tracer.Emit(s)
}

// lookup emits one cache-tier lookup span.
func (rt *runRec) lookup(stage, tier string, hit bool, d time.Duration) {
	outcome := "miss"
	if hit {
		outcome = "hit"
	}
	rt.span(stage, tier, outcome, d, nil)
}

// phase records one simulated phase: the phase histogram plus a span.
func (rt *runRec) phase(stage string, d time.Duration) {
	if rt == nil {
		return
	}
	if o := rt.o; o != nil {
		switch stage {
		case obs.StageWarmup:
			if o.warmupSeconds != nil {
				o.warmupSeconds.Observe(d.Seconds())
			}
		case obs.StageMeasure:
			if o.measureSeconds != nil {
				o.measureSeconds.Observe(d.Seconds())
			}
		}
	}
	rt.span(stage, obs.TierSimulated, "", d, nil)
}
