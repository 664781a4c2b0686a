package pipeline

// Differential testing of the timing model against the functional emulator:
// random seeded programs run through internal/emu directly and through the
// pipeline's commit stream, and the architectural outcomes must be
// identical. The pipeline is trace-driven, so what this locks down is the
// commit discipline itself — that every traced µop commits exactly once, in
// program order, through every squash, replay and refetch the machine
// performs. A hot-path refactor that drops, duplicates or reorders commits
// cannot pass.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
)

// archShadow reconstructs architectural state from the committed µop stream.
type archShadow struct {
	regs [isa.NumRegs]uint64
	mem  map[uint64]uint64 // 8-byte-aligned address -> word
}

func newArchShadow(p *isa.Program) *archShadow {
	s := &archShadow{mem: make(map[uint64]uint64)}
	for _, seg := range p.Data {
		for i, w := range seg.Words {
			s.mem[(seg.Addr+uint64(i)*8)&^7] = w
		}
	}
	for r, v := range p.InitRegs {
		s.regs[r] = v
	}
	return s
}

// apply replays the architectural effects of tr's µop ti, which committed.
func (s *archShadow) apply(tr isa.Trace, ti int) {
	d, in := &tr.Uops[ti], tr.Inst(ti)
	if isa.IsStore(in.Op) {
		s.mem[d.Addr&^7] = s.regs[in.Src2]
	}
	if in.Dst != isa.NoReg {
		s.regs[in.Dst] = d.Result
	}
}

// diffPredictors are the predictor configurations the differential test
// crosses with both recovery modes; LVP with deterministic counters is the
// most squash-happy configuration the suite has.
func diffPredictors() []func(w *Prepared) core.Predictor {
	return []func(w *Prepared) core.Predictor{
		nil,
		func(w *Prepared) core.Predictor { return core.NewLVP(10, core.FPCBaseline, 3) },
		func(w *Prepared) core.Predictor { return core.NewStride2D(10, core.FPCBaseline, 3) },
		func(w *Prepared) core.Predictor {
			return core.NewHybrid(newVTAGE(w, core.DefaultVTAGEConfig(core.FPCBaseline)),
				core.NewStride2D(10, core.FPCBaseline, 4))
		},
	}
}

// TestDifferentialEmuVsPipeline runs random seeded programs through the
// emulator and through the pipeline's commit stream and asserts identical
// committed register and memory state, plus exact commit-order discipline.
func TestDifferentialEmuVsPipeline(t *testing.T) {
	seeds := int64(8)
	traceUops := 25_000
	if testing.Short() {
		seeds, traceUops = 3, 8_000
	}
	for seed := int64(1); seed <= seeds; seed++ {
		prog := randomProgram(seed)
		tr := emu.Trace(prog, traceUops)

		// Reference: the emulator's own architectural state after exactly
		// len(tr.Uops) steps.
		ref := emu.New(prog)
		for i := 0; i < len(tr.Uops); i++ {
			if _, ok := ref.Step(); !ok {
				t.Fatalf("seed %d: emulator halted before the trace ended", seed)
			}
		}

		pt := Prepare(tr)
		for pi, mk := range diffPredictors() {
			for _, rec := range []RecoveryMode{SquashAtCommit, SelectiveReissue} {
				var p core.Predictor
				if mk != nil {
					p = mk(pt)
				}
				cfg := DefaultConfig()
				cfg.Recovery = rec

				shadow := newArchShadow(prog)
				var commits uint64
				var orderErr bool
				sim := New(cfg, pt, p)
				sim.OnCommit = func(ti int) {
					if uint64(ti) != commits {
						orderErr = true
					}
					commits++
					shadow.apply(tr, ti)
				}
				st, err := sim.Run(0, uint64(len(tr.Uops)))
				if err != nil {
					t.Fatalf("seed %d pred %d %v: %v", seed, pi, rec, err)
				}
				if orderErr {
					t.Fatalf("seed %d pred %d %v: commits out of order or duplicated", seed, pi, rec)
				}
				if commits != uint64(len(tr.Uops)) || st.Committed != commits {
					t.Fatalf("seed %d pred %d %v: %d commits for a %d-uop trace (stats say %d)",
						seed, pi, rec, commits, len(tr.Uops), st.Committed)
				}

				for r := isa.Reg(0); r < isa.NumRegs; r++ {
					if shadow.regs[r] != ref.Reg(r) {
						t.Errorf("seed %d pred %d %v: reg %v = %#x from commit stream, %#x from emulator",
							seed, pi, rec, r, shadow.regs[r], ref.Reg(r))
					}
				}
				for addr, v := range shadow.mem {
					if got := ref.ReadMem(addr); got != v {
						t.Errorf("seed %d pred %d %v: mem[%#x] = %#x from commit stream, %#x from emulator",
							seed, pi, rec, addr, v, got)
					}
				}
				if t.Failed() {
					return // one full dump is enough
				}
			}
		}
	}
}

// TestDifferentialKernels runs the same commit-stream check over real
// kernels, which exercise far deeper loops, FP code and the full memory
// hierarchy timing (the values themselves still come from the trace).
func TestDifferentialKernels(t *testing.T) {
	names := []string{"gzip", "mcf", "wupwise", "crafty"}
	traceUops := 30_000
	if testing.Short() {
		names, traceUops = names[:2], 10_000
	}
	for _, name := range names {
		pred := core.NewLVP(10, core.FPCBaseline, 3)
		sim, err := NewForKernel(DefaultConfig(), name, traceUops, pred)
		if err != nil {
			t.Fatal(err)
		}
		var commits uint64
		ok := true
		sim.OnCommit = func(ti int) {
			if uint64(ti) != commits {
				ok = false
			}
			commits++
		}
		st, err := sim.Run(0, uint64(traceUops))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ok {
			t.Errorf("%s: commit stream out of order", name)
		}
		if commits != st.Committed {
			t.Errorf("%s: hook saw %d commits, stats %d", name, commits, st.Committed)
		}
	}
}
