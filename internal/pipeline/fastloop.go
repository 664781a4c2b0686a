package pipeline

import "math"

// This file holds the fast loop's event-driven idle-cycle skipping
// (DESIGN.md §9); its issue filter lives with the issue stage in sim.go.
// Both are exact — the reference loop stays available behind
// SetReferenceLoop, and TestFastLoopMatchesReference pins the two
// byte-identical across every predictor family and recovery mode.

// SetReferenceLoop switches the sim to the reference simulate loop: an
// issue scan over every waiting µop (no issue filter), a step every cycle
// with no idle skipping, and a writeback scan and IQ validation every
// cycle. The fast loop is exactly equivalent; the reference exists so
// differential tests can prove it.
func (s *Sim) SetReferenceLoop(on bool) { s.refLoop = on }

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
	if !s.fetchBlocked && s.fetchIdx < len(s.uops) && s.feqLen < fetchBufCap {
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
