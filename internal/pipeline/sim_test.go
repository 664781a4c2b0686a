package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/ghist"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// simpleLoop builds an independent-add loop with plenty of ILP.
func simpleLoop() []isa.DynInst {
	b := isa.NewBuilder("ilp")
	b.Li(isa.R1, 0)
	loop := b.Here()
	b.Addi(isa.R2, isa.R1, 1)
	b.Addi(isa.R3, isa.R1, 2)
	b.Addi(isa.R4, isa.R1, 3)
	b.Addi(isa.R5, isa.R1, 4)
	b.Addi(isa.R1, isa.R1, 1)
	b.Jmp(loop)
	b.Halt()
	return emu.Trace(b.Program(), 60_000)
}

// serialChain builds a serial dependence chain through a constant-value
// load: without VP the loop is latency-bound; with a last-value predictor it
// is not.
func serialChain() []isa.DynInst {
	b := isa.NewBuilder("chain")
	b.Data(0x1000, 0) // chase slot holding index 0 (self-loop)
	b.Li(isa.R1, 0x1000)
	b.Li(isa.R2, 0)
	b.Li(isa.R4, 0)
	loop := b.Here()
	b.Shli(isa.R3, isa.R2, 3)
	b.Ldx(isa.R2, isa.R1, isa.R3) // serial: load feeds next address (always 0)
	b.Add(isa.R4, isa.R4, isa.R2)
	b.Jmp(loop)
	b.Halt()
	return emu.Trace(b.Program(), 60_000)
}

// testWin sizes simulation windows for the test mode: full in long mode,
// a fifth in -short mode, keeping every path exercised while the suite
// stays fast.
func testWin(warmup, measure uint64) (uint64, uint64) {
	if testing.Short() {
		return warmup / 5, measure / 5
	}
	return warmup, measure
}

func runTrace(t *testing.T, tr []isa.DynInst, mk func(h *ghist.History) core.Predictor, rec RecoveryMode) *Stats {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Recovery = rec
	h := &ghist.History{}
	var p core.Predictor
	if mk != nil {
		p = mk(h)
	}
	s := New(cfg, tr, p, h)
	w, m := testWin(10_000, 40_000)
	st, err := s.Run(w, m)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return st
}

func TestBaselineIPCSane(t *testing.T) {
	st := runTrace(t, simpleLoop(), nil, SquashAtCommit)
	ipc := st.IPC()
	if ipc <= 0.5 || ipc > 8 {
		t.Errorf("baseline IPC = %.2f, want in (0.5, 8]", ipc)
	}
	if st.MeasuredCommitted() == 0 {
		t.Error("nothing committed in measurement window")
	}
}

func TestCommittedMatchesRequest(t *testing.T) {
	st := runTrace(t, simpleLoop(), nil, SquashAtCommit)
	// Commit is up to RetireWidth per cycle, so the final cycle may overshoot
	// the requested total by at most RetireWidth-1.
	w, m := testWin(10_000, 40_000)
	want := w + m
	if st.Committed < want || st.Committed >= want+8 {
		t.Errorf("Committed = %d, want %d..%d", st.Committed, want, want+7)
	}
}

// TestSplitRunMatchesStraightRun pins the split-run contract every
// cancellable or observed harness run relies on: Run(warmup, 0) followed by
// Advance calls in chunks smaller than the measure window reproduces a
// straight Run(warmup, measure) exactly — the same Stats and the same
// commit stream — for every predictor family × both recovery modes.
// Pausing between cycles must be state-neutral.
func TestSplitRunMatchesStraightRun(t *testing.T) {
	w, m := testWin(8_000, 20_000)
	const chunk = 1_733 // below the measure window, so every run splits it
	for _, kernel := range []string{"gzip", "applu"} {
		k, ok := kernels.ByName(kernel)
		if !ok {
			t.Fatalf("unknown kernel %q", kernel)
		}
		tr := emu.Trace(k.Build(), int(w+m))
		total := min(w+m, uint64(len(tr)))
		for name, mk := range familyPredictors() {
			for _, rec := range []RecoveryMode{SquashAtCommit, SelectiveReissue} {
				cfg := DefaultConfig()
				cfg.Recovery = rec
				build := func() (*Sim, *[]uint64) {
					h := &ghist.History{}
					var p core.Predictor
					if mk != nil {
						p = mk(h)
					}
					s := New(cfg, tr, p, h)
					var seqs []uint64
					s.OnCommit = func(di *isa.DynInst) { seqs = append(seqs, di.Seq) }
					return s, &seqs
				}

				ref, refSeqs := build()
				refSt, err := ref.Run(w, m)
				if err != nil {
					t.Fatalf("%s/%s/%v: straight run: %v", kernel, name, rec, err)
				}

				split, seqs := build()
				st, err := split.Run(w, 0)
				for err == nil && st.Committed < total {
					st, err = split.Advance(min(chunk, total-st.Committed))
				}
				if err != nil {
					t.Fatalf("%s/%s/%v: split run: %v", kernel, name, rec, err)
				}

				if *st != *refSt {
					t.Errorf("%s/%s/%v: split run differs from straight run:\n split %+v\n  ref %+v",
						kernel, name, rec, *st, *refSt)
				}
				if i, ok := sameSeqs(*seqs, *refSeqs); !ok {
					t.Fatalf("%s/%s/%v: commit streams diverge at %d (lengths %d, %d)",
						kernel, name, rec, i, len(*seqs), len(*refSeqs))
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func(h *ghist.History) core.Predictor {
		return core.NewVTAGE(core.DefaultVTAGEConfig(core.FPCCommit), h)
	}
	a := runTrace(t, serialChain(), mk, SquashAtCommit)
	b := runTrace(t, serialChain(), mk, SquashAtCommit)
	if *a != *b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestOracleBreaksSerialChain(t *testing.T) {
	base := runTrace(t, serialChain(), nil, SquashAtCommit)
	oracle := runTrace(t, serialChain(), func(*ghist.History) core.Predictor { return &core.Oracle{} }, SquashAtCommit)
	if oracle.IPC() <= base.IPC()*1.2 {
		t.Errorf("oracle IPC %.2f not well above baseline %.2f on a serial chain",
			oracle.IPC(), base.IPC())
	}
	if oracle.Accuracy() != 1 {
		t.Errorf("oracle accuracy = %.4f, want 1", oracle.Accuracy())
	}
}

func TestLVPBreaksConstantLoadChain(t *testing.T) {
	base := runTrace(t, serialChain(), nil, SquashAtCommit)
	lvp := runTrace(t, serialChain(), func(*ghist.History) core.Predictor {
		return core.NewLVP(13, core.FPCCommit, 7)
	}, SquashAtCommit)
	if lvp.IPC() <= base.IPC()*1.1 {
		t.Errorf("LVP IPC %.2f vs baseline %.2f: constant-load chain not broken",
			lvp.IPC(), base.IPC())
	}
	if lvp.Used == 0 {
		t.Error("LVP made no used predictions")
	}
	if acc := lvp.Accuracy(); acc < 0.99 {
		t.Errorf("LVP accuracy on constant loads = %.4f, want ≈ 1", acc)
	}
}

// changingValues builds a loop whose load value changes every k iterations:
// a predictor that becomes confident will periodically be wrong, exercising
// the recovery paths.
func changingValues() []isa.DynInst {
	b := isa.NewBuilder("change")
	b.Li(isa.R1, 0x1000)
	b.Li(isa.R2, 0) // iteration counter
	b.Li(isa.R5, 0) // stored value
	loop := b.Here()
	b.Ld(isa.R3, isa.R1, 0)
	b.Add(isa.R4, isa.R3, isa.R3) // dependent use: makes the prediction "used"
	b.Addi(isa.R2, isa.R2, 1)
	b.Andi(isa.R6, isa.R2, 63)
	skip := b.NewLabel()
	b.Bnez(isa.R6, skip)
	b.Addi(isa.R5, isa.R5, 1) // every 64 iterations the value changes
	b.St(isa.R1, 0, isa.R5)
	b.Bind(skip)
	b.Jmp(loop)
	b.Halt()
	return emu.Trace(b.Program(), 80_000)
}

func TestValueSquashPathExercised(t *testing.T) {
	// With deterministic 3-bit counters LVP becomes confident quickly and is
	// then wrong at every value change: squashes must occur and be survived.
	st := runTrace(t, changingValues(), func(*ghist.History) core.Predictor {
		return core.NewLVP(13, core.FPCBaseline, 7)
	}, SquashAtCommit)
	if st.SquashValue == 0 {
		t.Error("no value squashes despite periodic mispredictions")
	}
	if st.UsedWrong == 0 {
		t.Error("no wrong used predictions recorded")
	}
}

func TestSelectiveReissuePathExercised(t *testing.T) {
	st := runTrace(t, changingValues(), func(*ghist.History) core.Predictor {
		return core.NewLVP(13, core.FPCBaseline, 7)
	}, SelectiveReissue)
	if st.ReissuedUops == 0 {
		t.Error("no µops reissued despite mispredictions with dependents")
	}
	if st.SquashValue != 0 {
		t.Error("commit-time value squashes under selective reissue")
	}
}

func TestReissueCheaperThanSquashAtLowAccuracy(t *testing.T) {
	// The Section 3.1.1 argument: with a mediocre confidence scheme,
	// selective reissue beats squashing at commit.
	mk := func(*ghist.History) core.Predictor { return core.NewLVP(13, core.FPCBaseline, 7) }
	squash := runTrace(t, changingValues(), mk, SquashAtCommit)
	reissue := runTrace(t, changingValues(), mk, SelectiveReissue)
	if reissue.IPC() < squash.IPC()*0.98 {
		t.Errorf("reissue IPC %.3f below squash IPC %.3f", reissue.IPC(), squash.IPC())
	}
}

// storeLoadConflict builds a late-resolving store followed by an early load
// to the same address: classic memory-order violation until store sets learn.
func storeLoadConflict() []isa.DynInst {
	b := isa.NewBuilder("conflict")
	b.Li(isa.R1, 0x1000)
	b.Li(isa.R2, 100)
	b.Li(isa.R7, 3)
	loop := b.Here()
	// Store address depends on a long-latency divide.
	b.Div(isa.R3, isa.R2, isa.R7) // slow
	b.Andi(isa.R3, isa.R3, 0)     // always 0 -> same word
	b.Add(isa.R4, isa.R1, isa.R3)
	b.St(isa.R4, 0, isa.R2)
	// The load is ready immediately and overlaps the store.
	b.Ld(isa.R5, isa.R1, 0)
	b.Add(isa.R6, isa.R5, isa.R5)
	b.Addi(isa.R2, isa.R2, 1)
	b.Jmp(loop)
	b.Halt()
	return emu.Trace(b.Program(), 60_000)
}

func TestMemoryOrderViolationAndLearning(t *testing.T) {
	// No warmup: the first violation must be visible in the stats.
	cfg := DefaultConfig()
	s := New(cfg, storeLoadConflict(), nil, nil)
	_, m := testWin(0, 50_000)
	st, err := s.Run(0, m)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.SquashMemOrder == 0 {
		t.Error("no memory-order violations on a store-load conflict loop")
	}
	// Store sets must learn: violations should be far rarer than iterations.
	iters := st.MeasuredCommitted() / 9
	if st.SquashMemOrder > iters/4 {
		t.Errorf("store sets never learned: %d violations in %d iterations",
			st.SquashMemOrder, iters)
	}
}

func TestBranchMispredictsRecover(t *testing.T) {
	// Data-dependent branches on pseudo-random values: TAGE cannot predict
	// them all; squashes must be counted and survived.
	b := isa.NewBuilder("rand-branch")
	b.Li(isa.R1, 88172645463325252)
	b.Li(isa.R2, 0)
	loop := b.Here()
	b.Muli(isa.R1, isa.R1, 6364136223846793005)
	b.Addi(isa.R1, isa.R1, 1442695040888963407)
	b.Shri(isa.R3, isa.R1, 60)
	skip := b.NewLabel()
	b.Beqz(isa.R3, skip)
	b.Addi(isa.R2, isa.R2, 1)
	b.Bind(skip)
	b.Jmp(loop)
	b.Halt()
	tr := emu.Trace(b.Program(), 60_000)
	st := runTrace(t, tr, nil, SquashAtCommit)
	if st.SquashBranch == 0 {
		t.Error("no branch mispredictions on random branches")
	}
	if st.CondMispredicts == 0 || st.CondBranches == 0 {
		t.Error("branch statistics not collected")
	}
}

func TestB2BStatisticCollected(t *testing.T) {
	// The tight ILP loop refetches the same PCs every cycle or two: the
	// back-to-back statistic must be non-zero there.
	st := runTrace(t, simpleLoop(), nil, SquashAtCommit)
	if st.B2BEligible == 0 {
		t.Error("no back-to-back-eligible µops in a tight loop")
	}
	if st.B2BFraction() <= 0 || st.B2BFraction() > 1 {
		t.Errorf("B2BFraction = %f out of range", st.B2BFraction())
	}
}

func TestIPCNeverExceedsWidth(t *testing.T) {
	for _, tr := range [][]isa.DynInst{simpleLoop(), serialChain(), changingValues()} {
		st := runTrace(t, tr, nil, SquashAtCommit)
		if st.IPC() > float64(DefaultConfig().RetireWidth) {
			t.Errorf("IPC %.2f exceeds retire width", st.IPC())
		}
	}
}

func TestTable2Renders(t *testing.T) {
	s := DefaultConfig().FormatTable2()
	if len(s) < 100 {
		t.Errorf("Table 2 rendering too short:\n%s", s)
	}
}

func TestNewForKernelUnknown(t *testing.T) {
	if _, err := NewForKernel(DefaultConfig(), "no-such-kernel", 1000, nil, nil); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestAllKernelsSimulate(t *testing.T) {
	// Integration smoke test: every kernel runs under the baseline machine.
	for _, name := range kernelNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, m := testWin(5_000, 25_000)
			s, err := NewForKernel(DefaultConfig(), name, int(w+m), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			st, err := s.Run(w, m)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if st.IPC() <= 0 {
				t.Errorf("IPC = %f", st.IPC())
			}
		})
	}
}

// kernelNames avoids importing kernels into every test function signature.
func kernelNames() []string {
	return []string{"gzip", "wupwise", "applu", "vpr", "art", "crafty",
		"parser", "vortex", "bzip2", "gcc", "gamess", "mcf", "milc", "namd",
		"gobmk", "hmmer", "sjeng", "h264ref", "lbm"}
}
