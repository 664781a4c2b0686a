package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// newVTAGE builds a VTAGE under cfg over w's rows.
func newVTAGE(w *Prepared, cfg core.VTAGEConfig) *core.VTAGE {
	return core.NewVTAGE(cfg, w.VTAGERows(cfg))
}

// familyPredictors covers every predictor family the harness can build,
// including the hybrids' cross-feeding and the oracle's feed path.
func familyPredictors() map[string]func(w *Prepared) core.Predictor {
	return map[string]func(w *Prepared) core.Predictor{
		"none":   nil,
		"oracle": func(w *Prepared) core.Predictor { return &core.Oracle{} },
		"lvp":    func(w *Prepared) core.Predictor { return core.NewLVP(10, core.FPCBaseline, 3) },
		"stride": func(w *Prepared) core.Predictor { return core.NewStride2D(10, core.FPCBaseline, 3) },
		"fcm":    func(w *Prepared) core.Predictor { return core.NewFCM(4, 10, core.FPCBaseline, 3) },
		"gdiff":  func(w *Prepared) core.Predictor { return core.NewGDiff(10, core.FPCBaseline, 3) },
		"ps": func(w *Prepared) core.Predictor {
			return core.NewPS(10, 10, core.FPCBaseline, 3, w.PSRows())
		},
		"vtage": func(w *Prepared) core.Predictor {
			return newVTAGE(w, core.DefaultVTAGEConfig(core.FPCCommit))
		},
		"vtage+stride": func(w *Prepared) core.Predictor {
			return core.NewHybrid(newVTAGE(w, core.DefaultVTAGEConfig(core.FPCCommit)),
				core.NewStride2D(10, core.FPCCommit, 4))
		},
	}
}

// fastRefWorkloads are the traces TestFastLoopMatchesReference runs, with
// different idle and wakeup profiles: mcf is memory-bound (long idle
// windows the fast loop skips), gzip is branchy (frequent squashes and
// short windows), applu under selective reissue replays loads that complete
// earlier than their first execution, and the generated branchy and memory
// programs are where the issue stage's wakeup chains do most of the work.
func fastRefWorkloads(t *testing.T, n int) map[string]*Prepared {
	t.Helper()
	out := make(map[string]*Prepared)
	for _, name := range []string{"mcf", "gzip", "applu"} {
		k, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("unknown kernel %q", name)
		}
		out[name] = Prepare(emu.Trace(k.Build(), n))
	}
	for _, fam := range []string{"branchy", "memory"} {
		prog, err := isa.Generate(fam, 1)
		if err != nil {
			t.Fatal(err)
		}
		out[prog.Name] = Prepare(emu.Trace(prog, n))
	}
	return out
}

// TestFastLoopMatchesReference pins the specialized simulate loop (the
// issue filter, idle-cycle skipping) byte-identical to the reference loop
// (a full issue scan and a step every cycle) for every predictor family ×
// both recovery modes × the fastRefWorkloads traces.
func TestFastLoopMatchesReference(t *testing.T) {
	w, m := testWin(8_000, 20_000)
	total := w + m

	for wl, tr := range fastRefWorkloads(t, int(total)) {
		for name, mk := range familyPredictors() {
			for _, rec := range []RecoveryMode{SquashAtCommit, SelectiveReissue} {
				cfg := DefaultConfig()
				cfg.Recovery = rec

				run := func(ref bool) (*Stats, []uint64) {
					var p core.Predictor
					if mk != nil {
						p = mk(tr)
					}
					s := New(cfg, tr, p)
					s.SetReferenceLoop(ref)
					var seqs []uint64
					s.OnCommit = func(ti int) { seqs = append(seqs, uint64(ti)) }
					st, err := s.Run(w, m)
					if err != nil {
						t.Fatalf("%s/%s/%v (ref=%v): %v", wl, name, rec, ref, err)
					}
					return st, seqs
				}

				refSt, refSeqs := run(true)
				fastSt, fastSeqs := run(false)
				if *fastSt != *refSt {
					t.Errorf("%s/%s/%v: fast loop diverged from reference:\n fast %+v\n  ref %+v",
						wl, name, rec, *fastSt, *refSt)
				}
				if i, ok := sameSeqs(fastSeqs, refSeqs); !ok {
					t.Fatalf("%s/%s/%v: commit streams diverge at %d (lengths %d, %d)",
						wl, name, rec, i, len(fastSeqs), len(refSeqs))
				}
			}
		}
	}
}

// sameSeqs reports whether two commit streams are equal and, if not, the
// first index at which they differ.
func sameSeqs(a, b []uint64) (int, bool) {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i, false
		}
	}
	return len(a), len(a) == len(b)
}

// TestFastLoopSkipsIdleCycles asserts the fast loop actually exercises the
// skip path on a memory-bound kernel: the machine must reach the same final
// cycle as the reference while calling step far fewer times. Without this,
// a silently dead skip predicate would keep the differential test green
// while losing the speedup it exists to provide.
func TestFastLoopSkipsIdleCycles(t *testing.T) {
	w, m := testWin(4_000, 12_000)
	cfg := DefaultConfig()
	s, err := NewForKernel(cfg, "mcf", int(w+m), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(w, m)
	if err != nil {
		t.Fatal(err)
	}
	// Count no-op steps indirectly: re-run in reference mode and compare
	// cycles (identical) — then confirm skipping happened by construction:
	// on mcf a large fraction of cycles are idle waits on DRAM, so the
	// committed-µop/cycle ratio is low while the fast loop's wall clock is
	// dominated by active cycles only. The cheap observable proxy here is
	// that at least one skip occurred, which we detect by stepping a fresh
	// sim manually and watching the cycle counter jump.
	s2, err := NewForKernel(cfg, "mcf", int(w+m), nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	jumped := false
	for s2.Stats().Committed < w+m && steps < 10_000_000 {
		before := s2.cycle
		s2.step()
		s2.maybeSkipIdle()
		if s2.cycle > before+1 {
			jumped = true
		}
		steps++
	}
	if !jumped {
		t.Fatal("fast loop never skipped an idle cycle on mcf")
	}
	if int64(steps) >= s2.cycle {
		t.Fatalf("fast loop stepped every cycle (%d steps for %d cycles)", steps, s2.cycle)
	}
	if s2.cycle != st.Cycles {
		t.Fatalf("manual stepping ended at cycle %d, Run ended at %d", s2.cycle, st.Cycles)
	}
}

// TestInFlightInvariants steps sims through both recovery modes and checks
// after every step the facts the fast loop's bookkeeping and the
// predictors' per-trace rows rest on:
//
//   - the in-flight µops (ROB, then fetch queue) hold consecutive trace
//     indexes ending just before fetchIdx, and span no more of them than
//     the payload ring holds, so no live payload slot is ever reused;
//   - every parked µop (waiting but not awake) sits on exactly one wakeup
//     chain, whose producer is in flight and has not issued;
//   - the global history position is a function of the trace index: every
//     in-flight µop's checkpoint (histPos) and, at fetchIdx, the position
//     fetch stands at equal the number of conditional branches before it.
func TestInFlightInvariants(t *testing.T) {
	w, m := testWin(5_000, 15_000)
	total := w + m
	preds := map[string]func(w *Prepared) core.Predictor{
		"lvp": func(w *Prepared) core.Predictor { return core.NewLVP(10, core.FPCBaseline, 3) },
		"vtage+stride": func(w *Prepared) core.Predictor {
			return core.NewHybrid(newVTAGE(w, core.DefaultVTAGEConfig(core.FPCCommit)),
				core.NewStride2D(10, core.FPCCommit, 4))
		},
	}
	workloads := fastRefWorkloads(t, int(total))
	for _, wl := range []string{"gzip", "applu", "branchy-1"} {
		for name, mk := range preds {
			for _, rec := range []RecoveryMode{SquashAtCommit, SelectiveReissue} {
				cfg := DefaultConfig()
				cfg.Recovery = rec
				s := New(cfg, workloads[wl], mk(workloads[wl]))
				before := branchesBefore(s)
				parkedSeen := 0
				for steps := 0; s.stats.Committed < total; steps++ {
					if steps > 10_000_000 {
						t.Fatalf("%s/%s/%v: no progress", wl, name, rec)
					}
					s.step()
					s.maybeSkipIdle()
					n, err := checkInFlight(s, before)
					if err != nil {
						t.Fatalf("%s/%s/%v at cycle %d: %v", wl, name, rec, s.cycle, err)
					}
					parkedSeen += n
				}
				if parkedSeen == 0 {
					t.Errorf("%s/%s/%v: no µop was ever parked", wl, name, rec)
				}
			}
		}
	}
}

// branchesBefore returns, for every trace index i of s's trace and one
// past its end, the number of conditional branches in uops[:i]: the
// history position fetch must stand at when it reaches i.
func branchesBefore(s *Sim) []uint64 {
	before := make([]uint64, len(s.uops)+1)
	for i := range s.uops {
		before[i+1] = before[i]
		if s.code[s.uops[i].PC()].class == isa.ClassBranch {
			before[i+1]++
		}
	}
	return before
}

// checkInFlight verifies the invariants TestInFlightInvariants names and
// returns the number of parked µops. before is branchesBefore(s).
func checkInFlight(s *Sim, before []uint64) (int, error) {
	next := s.fetchIdx // trace index the next older in-flight µop must hold
	for i := s.feqLen - 1; i >= 0; i-- {
		fi := (s.feqHead + i) % len(s.feq)
		if s.feq[fi].ti != next-1 {
			return 0, fmt.Errorf("fetch queue entry %d holds trace index %d, want %d", i, s.feq[fi].ti, next-1)
		}
		next--
	}
	for age := s.count - 1; age >= 0; age-- {
		slot := (s.head + age) % len(s.rob)
		if s.rob[slot].ti != next-1 {
			return 0, fmt.Errorf("ROB age %d holds trace index %d, want %d", age, s.rob[slot].ti, next-1)
		}
		next--
	}
	if span := s.fetchIdx - next; span > len(s.pay) {
		return 0, fmt.Errorf("in-flight µops span %d trace indexes, payload ring holds %d", span, len(s.pay))
	}
	for ti := next; ti < s.fetchIdx; ti++ {
		if got := s.pl(ti).histPos; got != before[ti] {
			return 0, fmt.Errorf("trace index %d: history checkpoint %d, want %d conditional branches before it", ti, got, before[ti])
		}
	}
	if got := s.histPos; got != before[s.fetchIdx] {
		return 0, fmt.Errorf("history at position %d fetching trace index %d, want %d", got, s.fetchIdx, before[s.fetchIdx])
	}

	chained := make(map[int]bool)
	for p := range s.wakeHead {
		for w := s.wakeHead[p]; w != noSlot; w = s.wakeNext[w] {
			if chained[w] {
				return 0, fmt.Errorf("slot %d is on two wakeup chains", w)
			}
			chained[w] = true
			if s.slotAge(p) >= s.count {
				return 0, fmt.Errorf("slot %d is parked on slot %d, which is not in flight", w, p)
			}
			if s.rob[p].issued {
				return 0, fmt.Errorf("slot %d is parked on slot %d, which has issued", w, p)
			}
			if !s.waitIssue.has(w) || s.awake.has(w) {
				return 0, fmt.Errorf("chained slot %d: waiting %v, awake %v", w, s.waitIssue.has(w), s.awake.has(w))
			}
		}
	}
	for slot := range s.rob {
		if s.waitIssue.has(slot) && !s.awake.has(slot) && !chained[slot] {
			return 0, fmt.Errorf("slot %d is parked on no chain", slot)
		}
		if s.awake.has(slot) && !s.waitIssue.has(slot) {
			return 0, fmt.Errorf("slot %d is awake but not waiting", slot)
		}
	}
	return len(chained), nil
}
