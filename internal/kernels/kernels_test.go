package kernels

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
)

func TestAllKernelsBuildAndValidate(t *testing.T) {
	ks := All()
	if len(ks) != 19 {
		t.Fatalf("kernel count = %d, want 19 (Table 3)", len(ks))
	}
	for _, k := range ks {
		t.Run(k.Name, func(t *testing.T) {
			p := k.Build()
			if err := p.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if len(p.Insts) < 10 {
				t.Errorf("suspiciously small program: %d insts", len(p.Insts))
			}
		})
	}
}

func TestAllKernelsRunWithoutHalting(t *testing.T) {
	// Every kernel must sustain at least 200K µops (they are meant to run
	// forever; an early halt or a stuck PC means a broken loop).
	const want = 200_000
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			tr := emu.Trace(k.Build(), want)
			if len(tr.Uops) != want {
				t.Fatalf("trace ended after %d µops", len(tr.Uops))
			}
		})
	}
}

func TestKernelsAreDeterministic(t *testing.T) {
	for _, k := range All() {
		a := emu.Trace(k.Build(), 20_000).Uops
		bb := emu.Trace(k.Build(), 20_000).Uops
		for i := range a {
			if a[i] != bb[i] {
				t.Fatalf("%s: traces diverge at µop %d", k.Name, i)
			}
		}
	}
}

func TestKernelMix(t *testing.T) {
	// Each kernel must exercise the machine: some branches, and (except
	// pure register kernels) some memory traffic.
	for _, k := range All() {
		tr := emu.Trace(k.Build(), 50_000)
		var branches, mems, fpops, dests int
		for i := range tr.Uops {
			in := tr.Inst(i)
			if isa.IsControl(in.Op) {
				branches++
			}
			if isa.IsMem(in.Op) {
				mems++
			}
			if in.Dst != isa.NoReg && in.Dst.IsFP() {
				fpops++
			}
			if in.HasDest() {
				dests++
			}
		}
		if branches == 0 {
			t.Errorf("%s: no control flow", k.Name)
		}
		if mems == 0 {
			t.Errorf("%s: no memory traffic", k.Name)
		}
		if dests < len(tr.Uops)/4 {
			t.Errorf("%s: only %d/%d µops produce registers", k.Name, dests, len(tr.Uops))
		}
		if kk, _ := ByName(k.Name); kk.FP && fpops == 0 {
			t.Errorf("%s: declared FP but no FP results", k.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("gzip"); !ok {
		t.Error("gzip not found")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("found a kernel that should not exist")
	}
	if len(Names()) != 19 {
		t.Errorf("Names() = %d entries, want 19", len(Names()))
	}
	// The table is shared: what All and Names hand out is the caller's own.
	All()[0].Name = "mutated"
	Names()[1] = "mutated"
	if _, ok := ByName("gzip"); !ok || All()[0].Name != "gzip" || Names()[1] != "wupwise" {
		t.Error("a caller's edit of All() or Names() reached the kernel table")
	}
}

func TestH264HasTightLoop(t *testing.T) {
	// The h264 kernel exists to exercise back-to-back fetches of the same
	// µop: its inner loop must be shorter than the 8-wide fetch width + a
	// couple of cycles.
	tr := emu.Trace(buildH264(), 50_000)
	// Measure the most common PC-revisit distance.
	last := map[uint32]uint64{}
	hist := map[uint64]int{}
	for i := range tr.Uops {
		pc, seq := tr.Uops[i].PC(), uint64(i) // a µop's index is its sequence number
		if prev, ok := last[pc]; ok {
			hist[seq-prev]++
		}
		last[pc] = seq
	}
	best, bestN := uint64(0), 0
	for d, n := range hist {
		if n > bestN {
			best, bestN = d, n
		}
	}
	if best > 16 {
		t.Errorf("dominant PC revisit distance = %d µops, want ≤ 16 (tight loop)", best)
	}
}

func TestMcfChaseIsSerialAndConstant(t *testing.T) {
	// The mcf chase loads must return a repeating (hence predictable) value
	// stream: each chase slot holds a constant next-index.
	tr := emu.Trace(buildMcf(), 100_000)
	seen := map[uint32]map[uint64]map[uint64]bool{} // pc -> addr -> values
	for i := range tr.Uops {
		d := &tr.Uops[i]
		if !isa.IsLoad(tr.Inst(i).Op) {
			continue
		}
		if seen[d.PC()] == nil {
			seen[d.PC()] = map[uint64]map[uint64]bool{}
		}
		if seen[d.PC()][d.Addr] == nil {
			seen[d.PC()][d.Addr] = map[uint64]bool{}
		}
		seen[d.PC()][d.Addr][d.Result] = true
	}
	for pc, addrs := range seen {
		for addr, vals := range addrs {
			if len(vals) > 1 {
				t.Errorf("pc %d addr %#x returned %d distinct values, want 1", pc, addr, len(vals))
			}
		}
	}
}
