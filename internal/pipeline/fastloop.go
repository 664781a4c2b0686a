package pipeline

import (
	"math"

	"repro/internal/core"
)

// This file holds two legs of the specialized simulate loop (DESIGN.md
// §9.3): devirtualized per-µop predictor dispatch, and event-driven
// idle-cycle skipping; the issue filter lives with the issue stage in
// sim.go. All are exact — the reference loop stays available behind
// SetReferenceLoop, and TestFastLoopMatchesReference pins the two
// byte-identical across every predictor family and recovery mode.

// predKind names the concrete predictor type the hot loop dispatches to
// directly, avoiding an interface call per µop.
type predKind uint8

const (
	predNone predKind = iota // baseline machine: no value prediction
	predLVP
	predStride
	predFCM
	predVTAGE
	predGDiff
	predPS
	predHybrid
	predOracle
	predOther // unknown implementation (tests): interface dispatch
)

// resolvePred classifies pred and caches the concrete pointer for direct
// calls. Called once at construction; the per-µop wrappers below switch on
// the kind, which the compiler lowers to direct (inlinable) calls.
func (s *Sim) resolvePred(pred core.Predictor) {
	s.predKind = predOther
	switch p := pred.(type) {
	case nil:
		s.predKind = predNone
	case *core.LVP:
		s.predKind, s.lvp = predLVP, p
	case *core.Stride2D:
		s.predKind, s.stride = predStride, p
	case *core.FCM:
		s.predKind, s.fcm = predFCM, p
	case *core.VTAGE:
		s.predKind, s.vtage = predVTAGE, p
	case *core.GDiff:
		s.predKind, s.gdiff = predGDiff, p
	case *core.PS:
		s.predKind, s.ps = predPS, p
	case *core.Hybrid:
		s.predKind, s.hyb = predHybrid, p
	case *core.Oracle:
		s.predKind, s.orc = predOracle, p
	}
}

// SetReferenceLoop switches the sim to the reference simulate loop:
// interface dispatch for every predictor call, an issue scan over every
// waiting µop (no issue filter), and a step every cycle with no idle
// skipping. The fast loop is exactly equivalent; the reference
// exists so differential tests can prove it.
func (s *Sim) SetReferenceLoop(on bool) { s.refLoop = on }

func (s *Sim) predict(pc uint64, m *core.Meta) {
	if s.refLoop {
		s.pred.Predict(pc, m)
		return
	}
	switch s.predKind {
	case predLVP:
		s.lvp.Predict(pc, m)
	case predStride:
		s.stride.Predict(pc, m)
	case predFCM:
		s.fcm.Predict(pc, m)
	case predVTAGE:
		s.vtage.Predict(pc, m)
	case predGDiff:
		s.gdiff.Predict(pc, m)
	case predPS:
		s.ps.Predict(pc, m)
	case predHybrid:
		s.hyb.Predict(pc, m)
	case predOracle:
		s.orc.Predict(pc, m)
	default:
		s.pred.Predict(pc, m)
	}
}

func (s *Sim) train(pc uint64, actual uint64, m *core.Meta) {
	if s.refLoop {
		s.pred.Train(pc, actual, m)
		return
	}
	switch s.predKind {
	case predLVP:
		s.lvp.Train(pc, actual, m)
	case predStride:
		s.stride.Train(pc, actual, m)
	case predFCM:
		s.fcm.Train(pc, actual, m)
	case predVTAGE:
		s.vtage.Train(pc, actual, m)
	case predGDiff:
		s.gdiff.Train(pc, actual, m)
	case predPS:
		s.ps.Train(pc, actual, m)
	case predHybrid:
		s.hyb.Train(pc, actual, m)
	case predOracle:
		s.orc.Train(pc, actual, m)
	default:
		s.pred.Train(pc, actual, m)
	}
}

func (s *Sim) squashPred(fromSeq uint64) {
	if s.refLoop {
		s.pred.Squash(fromSeq)
		return
	}
	switch s.predKind {
	case predLVP:
		s.lvp.Squash(fromSeq)
	case predStride:
		s.stride.Squash(fromSeq)
	case predFCM:
		s.fcm.Squash(fromSeq)
	case predVTAGE:
		s.vtage.Squash(fromSeq)
	case predGDiff:
		s.gdiff.Squash(fromSeq)
	case predPS:
		s.ps.Squash(fromSeq)
	case predHybrid:
		s.hyb.Squash(fromSeq)
	case predOracle:
		s.orc.Squash(fromSeq)
	default:
		s.pred.Squash(fromSeq)
	}
}

// feedSpec forwards a speculative occurrence to predictors that track one
// (the SpecFeeder implementations); other kinds are a no-op, mirroring the
// cached sfeed capability view.
func (s *Sim) feedSpec(pc uint64, v uint64, seq uint64) {
	if s.refLoop {
		if s.sfeed != nil {
			s.sfeed.FeedSpec(pc, v, seq)
		}
		return
	}
	switch s.predKind {
	case predStride:
		s.stride.FeedSpec(pc, v, seq)
	case predFCM:
		s.fcm.FeedSpec(pc, v, seq)
	case predGDiff:
		s.gdiff.FeedSpec(pc, v, seq)
	case predPS:
		s.ps.FeedSpec(pc, v, seq)
	case predHybrid:
		s.hyb.FeedSpec(pc, v, seq)
	default:
		if s.sfeed != nil {
			s.sfeed.FeedSpec(pc, v, seq)
		}
	}
}

// feedActual forwards the architectural outcome to the oracle before its
// Predict; all other kinds are a no-op.
func (s *Sim) feedActual(v uint64) {
	if s.refLoop {
		if s.ofeed != nil {
			s.ofeed.FeedActual(v)
		}
		return
	}
	switch s.predKind {
	case predOracle:
		s.orc.FeedActual(v)
	default:
		if s.ofeed != nil {
			s.ofeed.FeedActual(v)
		}
	}
}

// noEvent marks "no future cycle can change anything" in nextEventCycle.
const noEvent = int64(math.MaxInt64)

// nextEventCycle returns the earliest cycle at which any pipeline stage can
// act, assuming the cycle that just finished made no progress anywhere:
//
//   - an issued µop completes (doneCyc of a waitWB entry) — enables
//     writeback processing, dependent wakeup, IQ validation release;
//   - the ROB head becomes committable (doneCyc + commitLatency);
//   - the fetch queue head becomes dispatchable (readyCyc);
//   - the front-end may fetch again (nextFetchCyc, when fetch is eligible).
//
// Any returned cycle at or before s.cycle means "something is already
// pending" and the caller must not skip. The event set is exhaustive
// because every other state transition is driven by one of these: source
// readiness changes only when a producer completes or commits, structural
// resources free only at commit/writeback/issue, a blocked divider's free
// time is folded in separately (s.blockEvent), and the caller refuses to
// skip outright when issue saw a µop whose blocked retry has side effects
// (MSHR-full loads re-probe the cache every cycle).
func (s *Sim) nextEventCycle() int64 {
	// wbMinDone is a lower bound on the earliest completion in waitWB
	// (maintained by writeback/issue): a stale-low bound only shortens the
	// skip, never overshoots a completion.
	t := noEvent
	if s.waitWB.head != listEnd && s.wbMinDone < t {
		t = s.wbMinDone
	}
	if s.count > 0 {
		if h := &s.rob[s.head]; h.done {
			if d := h.doneCyc + commitLatency; d < t {
				t = d
			}
		}
	}
	if s.feqLen > 0 {
		// Only a not-yet-ready head is an event. An already-ready head in a
		// no-progress cycle means dispatch is resource-stalled: the unblock
		// comes from a completion or commit (covered above), and the stall
		// counter is bulk-charged by maybeSkipIdle.
		if d := s.feq[s.feqHead].readyCyc; d >= s.cycle && d < t {
			t = d
		}
	}
	if !s.fetchBlocked && s.fetchIdx < len(s.trace) && s.feqLen < fetchBufCap {
		if d := s.nextFetchCyc; d < t {
			t = d
		}
	}
	return t
}

// maybeSkipIdle advances s.cycle directly to the next event when the step
// that just ran changed nothing. Stepping through the skipped cycles would
// have been pure no-ops except for the per-cycle dispatch stall counter,
// which is bulk-added: the stall predicate cannot change during the window
// (its inputs only move on the events the window excludes by construction).
func (s *Sim) maybeSkipIdle() {
	if s.refLoop || s.progress || s.issueBlocked {
		return
	}
	t := s.nextEventCycle()
	if s.blockEvent < t {
		t = s.blockEvent // a busy divider frees then (always > s.cycle)
	}
	if t == noEvent || t <= s.cycle {
		return
	}
	if s.stallCtr != nil && s.warmed {
		*s.stallCtr += uint64(t - s.cycle)
	}
	s.cycle = t
}
