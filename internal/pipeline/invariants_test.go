package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
)

// randomProgram builds a structurally valid random program: arithmetic on a
// handful of registers, loads/stores into a small region, and a counted loop
// with a data-dependent inner branch. Used to fuzz the pipeline model.
func randomProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder("fuzz")
	regs := []isa.Reg{isa.R1, isa.R2, isa.R3, isa.R4, isa.R5, isa.R6}
	b.Li(isa.R10, 0x5000) // memory base
	for _, r := range regs {
		b.Li(r, int64(rng.Intn(100)))
	}
	loop := b.Here()
	n := 5 + rng.Intn(20)
	for i := 0; i < n; i++ {
		d := regs[rng.Intn(len(regs))]
		s1 := regs[rng.Intn(len(regs))]
		s2 := regs[rng.Intn(len(regs))]
		switch rng.Intn(8) {
		case 0:
			b.Add(d, s1, s2)
		case 1:
			b.Sub(d, s1, s2)
		case 2:
			b.Xor(d, s1, s2)
		case 3:
			b.Mul(d, s1, s2)
		case 4:
			b.Andi(d, s1, 0xFF8)
		case 5: // bounded load
			b.Andi(d, s1, 0xFF8)
			b.Add(d, d, isa.R10)
			b.Ld(d, d, 0)
		case 6: // bounded store
			b.Andi(isa.R7, s1, 0xFF8)
			b.Add(isa.R7, isa.R7, isa.R10)
			b.St(isa.R7, 0, s2)
		case 7: // data-dependent short forward branch
			skip := b.NewLabel()
			b.Andi(isa.R8, s1, 1)
			b.Beqz(isa.R8, skip)
			b.Addi(d, d, 1)
			b.Bind(skip)
		}
	}
	b.Jmp(loop)
	b.Halt()
	return b.Program()
}

// TestFuzzPipelineInvariants runs random programs through every predictor
// and recovery combination, checking global invariants: the run terminates,
// commits everything requested, IPC stays within machine bounds, and the
// reference loop reproduces the same Stats and commit stream.
func TestFuzzPipelineInvariants(t *testing.T) {
	preds := []func(w *Prepared) core.Predictor{
		nil,
		func(w *Prepared) core.Predictor { return core.NewLVP(10, core.FPCBaseline, 3) },
		func(w *Prepared) core.Predictor { return core.NewStride2D(10, core.FPCBaseline, 3) },
		func(w *Prepared) core.Predictor { return core.NewFCM(4, 10, core.FPCBaseline, 3) },
		func(w *Prepared) core.Predictor {
			return newVTAGE(w, core.DefaultVTAGEConfig(core.FPCBaseline))
		},
		func(w *Prepared) core.Predictor {
			return core.NewHybrid(newVTAGE(w, core.DefaultVTAGEConfig(core.FPCBaseline)),
				core.NewStride2D(10, core.FPCBaseline, 4))
		},
	}
	seeds := int64(6)
	if testing.Short() {
		seeds = 2 // two seeds still cross every predictor x recovery pair
	}
	for seed := int64(1); seed <= seeds; seed++ {
		tr := Prepare(emu.Trace(randomProgram(seed), 20_000))
		for pi, mk := range preds {
			for _, rec := range []RecoveryMode{SquashAtCommit, SelectiveReissue} {
				cfg := DefaultConfig()
				cfg.Recovery = rec
				run := func(ref bool) (Stats, []uint64) {
					var p core.Predictor
					if mk != nil {
						p = mk(tr)
					}
					s := New(cfg, tr, p)
					s.SetReferenceLoop(ref)
					var seqs []uint64
					s.OnCommit = func(ti int) { seqs = append(seqs, uint64(ti)) }
					st, err := s.Run(2_000, 15_000)
					if err != nil {
						t.Fatalf("seed %d pred %d %v (ref=%v): %v", seed, pi, rec, ref, err)
					}
					return *st, seqs
				}
				fast, fastSeqs := run(false)
				ref, refSeqs := run(true)
				if fast != ref {
					t.Errorf("seed %d pred %d %v: fast loop diverged from reference:\n fast %+v\n  ref %+v",
						seed, pi, rec, fast, ref)
				}
				if i, ok := sameSeqs(fastSeqs, refSeqs); !ok {
					t.Errorf("seed %d pred %d %v: commit streams diverge at %d", seed, pi, rec, i)
				}
				st := &fast
				if st.Committed < 17_000 {
					t.Errorf("seed %d pred %d %v: committed %d < requested", seed, pi, rec, st.Committed)
				}
				if ipc := st.IPC(); ipc <= 0 || ipc > 8 {
					t.Errorf("seed %d pred %d %v: IPC %f out of bounds", seed, pi, rec, ipc)
				}
				if acc := st.Accuracy(); acc < 0 || acc > 1 {
					t.Errorf("accuracy %f out of range", acc)
				}
				if cov := st.Coverage(); cov < 0 || cov > 1 {
					t.Errorf("coverage %f out of range", cov)
				}
			}
		}
	}
}

// Property: used predictions partition into correct and wrong.
func TestStatsPartitionProperty(t *testing.T) {
	tr := Prepare(emu.Trace(randomProgram(42), 20_000))
	f := func(seed uint32) bool {
		cfg := DefaultConfig()
		p := core.NewLVP(10, core.FPCBaseline, seed)
		st, err := New(cfg, tr, p).Run(2_000, 10_000)
		if err != nil {
			return false
		}
		return st.Used == st.UsedCorrect+st.UsedWrong && st.Used <= st.Eligible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

// TestOracleNeverSlower: on every kernel the oracle machine must commit the
// same work in no more cycles than the baseline.
func TestOracleNeverSlower(t *testing.T) {
	w, m := testWin(5_000, 15_000)
	for _, k := range kernelNames() {
		base, err := NewForKernel(DefaultConfig(), k, int(w+m), nil)
		if err != nil {
			t.Fatal(err)
		}
		bst, err := base.Run(w, m)
		if err != nil {
			t.Fatal(err)
		}
		osim, err := NewForKernel(DefaultConfig(), k, int(w+m), &core.Oracle{})
		if err != nil {
			t.Fatal(err)
		}
		ost, err := osim.Run(w, m)
		if err != nil {
			t.Fatal(err)
		}
		// Allow 2% slack for second-order effects (predictions change issue
		// order, which can shift cache/DRAM interleaving slightly). The
		// -short windows are too small to amortize cold caches, so they only
		// smoke-test the path with a much looser bound.
		slack := 0.98
		if testing.Short() {
			slack = 0.85
		}
		if ost.IPC() < bst.IPC()*slack {
			t.Errorf("%s: oracle IPC %.3f below baseline %.3f", k, ost.IPC(), bst.IPC())
		}
	}
}
