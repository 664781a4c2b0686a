package stats

import (
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

func TestEmptyTrace(t *testing.T) {
	p := Compute(isa.Trace{})
	if p.Uops != 0 || p.Eligible != 0 {
		t.Errorf("empty trace profile: %+v", p)
	}
}

func TestConstantLoopIsLastValuePredictable(t *testing.T) {
	b := isa.NewBuilder("const")
	b.Li(isa.R1, 7)
	loop := b.Here()
	b.Mov(isa.R2, isa.R1) // always 7
	b.Jmp(loop)
	b.Halt()
	p := Compute(emu.Trace(b.Program(), 10_000))
	if p.LastValueRate < 0.95 {
		t.Errorf("last-value rate = %.3f on a constant loop, want ≈ 1", p.LastValueRate)
	}
}

func TestAffineLoopIsStridePredictable(t *testing.T) {
	b := isa.NewBuilder("affine")
	b.Li(isa.R1, 0)
	loop := b.Here()
	b.Addi(isa.R1, isa.R1, 8)
	b.Jmp(loop)
	b.Halt()
	p := Compute(emu.Trace(b.Program(), 10_000))
	if p.StrideRate < 0.95 {
		t.Errorf("stride rate = %.3f on an affine loop, want ≈ 1", p.StrideRate)
	}
	if p.LastValueRate > 0.05 {
		t.Errorf("last-value rate = %.3f on an affine loop, want ≈ 0", p.LastValueRate)
	}
}

func TestMixFractionsSumBelowOne(t *testing.T) {
	for _, k := range kernels.All() {
		p := Compute(emu.Trace(k.Build(), 30_000))
		sum := p.Loads + p.Stores + p.Branches + p.FPOps + p.IntOps
		if sum > 1.0001 {
			t.Errorf("%s: mix fractions sum to %.3f > 1", k.Name, sum)
		}
		if p.StaticPCs <= 0 || p.FootprintLines <= 0 {
			t.Errorf("%s: degenerate profile %+v", k.Name, p)
		}
		if p.TakenRate < 0 || p.TakenRate > 1 {
			t.Errorf("%s: taken rate %f", k.Name, p.TakenRate)
		}
	}
}

func TestKernelDesignIntentVisibleInProfiles(t *testing.T) {
	profile := func(name string) Profile {
		k, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("kernel %q missing", name)
		}
		return Compute(emu.Trace(k.Build(), 100_000))
	}
	// art's normalization recurrence (about 2 of 10 µops per iteration) makes
	// it last-value local well above the noise floor, and its scan addresses
	// stride.
	if p := profile("art"); p.LastValueRate < 0.15 || p.StrideRate < 0.5 {
		t.Errorf("art locality lv=%.3f stride=%.3f, want ≥ 0.15 / ≥ 0.5",
			p.LastValueRate, p.StrideRate)
	}
	// bzip2's prefix sums and counters make it stride local.
	if p := profile("bzip2"); p.StrideRate < 0.25 {
		t.Errorf("bzip2 stride rate = %.3f, want ≥ 0.25", p.StrideRate)
	}
	// crafty's bit mixing should be neither.
	if p := profile("crafty"); p.LastValueRate > 0.45 && p.StrideRate > 0.45 {
		t.Errorf("crafty unexpectedly predictable: lv=%.3f stride=%.3f",
			p.LastValueRate, p.StrideRate)
	}
	// mcf touches far more memory than gamess.
	if mcf, gm := profile("mcf"), profile("gamess"); mcf.FootprintLines < gm.FootprintLines*10 {
		t.Errorf("mcf footprint %d not ≫ gamess %d", mcf.FootprintLines, gm.FootprintLines)
	}
	// sjeng exercises calls/returns.
	if p := profile("sjeng"); p.CallsReturns == 0 {
		t.Error("sjeng has no calls/returns")
	}
}

func TestFormatAndRow(t *testing.T) {
	p := Compute(emu.Trace(kernels.All()[0].Build(), 10_000))
	if s := p.Format("x"); !strings.Contains(s, "value locality") {
		t.Errorf("Format missing sections: %q", s)
	}
	if r := p.Row("x"); len(strings.Fields(r)) < 9 {
		t.Errorf("Row too short: %q", r)
	}
	if h := Header(); !strings.Contains(h, "lastv%") {
		t.Errorf("Header malformed: %q", h)
	}
}
