package emu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
)

// The trace record keeps only what execution adds to the instruction at its
// PC, with Taken packed beside the PC. These tests decode every record of
// real traces and compare it with what a reference machine, stepped
// alongside, shows: its PC before and after each step, its registers and
// its memory.

// observed is one µop as the reference machine shows it.
type observed struct {
	pc, nextPC   uint32
	in           isa.Inst
	result, addr uint64
	hasResult    bool // in.Dst names a register, so result is its new value
	taken        bool
}

// observeStep steps m once and reports what the µop did, computed from the
// machine's architectural state rather than from the record Step returns.
func observeStep(t *testing.T, m *Machine, p *isa.Program) (observed, bool) {
	t.Helper()
	if m.Halted() || int(m.PC()) >= len(p.Insts) {
		return observed{}, false
	}
	o := observed{pc: m.PC(), in: p.Insts[m.PC()]}
	in := o.in
	src := func(r isa.Reg) uint64 {
		if r == isa.NoReg {
			return 0
		}
		return m.Reg(r)
	}
	a, b := src(in.Src1), src(in.Src2)
	switch in.Op {
	case isa.LD, isa.FLD, isa.ST, isa.FST:
		o.addr = a + uint64(in.Imm)
	case isa.LDX:
		o.addr = a + b
	case isa.BEQ:
		o.taken = a == b
	case isa.BNE:
		o.taken = a != b
	case isa.BLT:
		o.taken = int64(a) < int64(b)
	case isa.BGE:
		o.taken = int64(a) >= int64(b)
	case isa.JMP, isa.JR, isa.CALL, isa.RET:
		o.taken = true
	}
	if _, ok := m.Step(); !ok {
		t.Fatalf("pc %d: reference machine stopped on a µop", o.pc)
	}
	o.nextPC = m.PC()
	if in.Dst != isa.NoReg {
		o.result, o.hasResult = m.Reg(in.Dst), true
	}
	return o, true
}

// checkTrace traces p for at most n µops and compares every record with a
// reference run of p.
func checkTrace(t *testing.T, name string, p *isa.Program, n int) isa.Trace {
	t.Helper()
	tr := Trace(p, n)
	ref := New(p)
	for i := range tr.Uops {
		d := &tr.Uops[i]
		o, ok := observeStep(t, ref, p)
		if !ok {
			t.Fatalf("%s: trace has µop %d, reference machine stopped", name, i)
		}
		if d.PC() != o.pc || tr.Inst(i) != o.in || d.NextPC != o.nextPC ||
			d.Addr != o.addr || d.Taken() != o.taken || (o.hasResult && d.Result != o.result) {
			t.Fatalf("%s: µop %d: record pc=%d inst=%v next=%d result=%#x addr=%#x taken=%v, reference pc=%d inst=%v next=%d result=%#x (%v) addr=%#x taken=%v",
				name, i, d.PC(), tr.Inst(i), d.NextPC, d.Result, d.Addr, d.Taken(),
				o.pc, o.in, o.nextPC, o.result, o.hasResult, o.addr, o.taken)
		}
	}
	if _, more := observeStep(t, ref, p); more && len(tr.Uops) < n {
		t.Fatalf("%s: trace ended after %d µops, reference machine runs on", name, len(tr.Uops))
	}
	return tr
}

// TestRecordsMatchReferenceRun decodes the traces of every builtin kernel
// and of every generator family against a reference machine.
func TestRecordsMatchReferenceRun(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 5_000
	}
	for _, k := range kernels.All() {
		checkTrace(t, k.Name, k.Build(), n)
	}
	for _, fam := range isa.Families() {
		p, err := isa.Generate(fam, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkTrace(t, p.Name, p, n)
	}
}

// TestRecordEdgeCases covers the records the packing could confuse: a
// conditional branch to PC+1, whose NextPC is the same taken or not; an
// indirect jump to a target with the top bit set, which ends the trace;
// and a CALL's link value.
func TestRecordEdgeCases(t *testing.T) {
	t.Run("branch to pc+1", func(t *testing.T) {
		b := isa.NewBuilder("next")
		b.Li(isa.R1, 0)
		l1 := b.NewLabel()
		b.Beqz(isa.R1, l1) // pc 1: taken, to 2
		b.Bind(l1)
		l2 := b.NewLabel()
		b.Bnez(isa.R1, l2) // pc 2: not taken, to 3
		b.Bind(l2)
		b.Halt()
		tr := checkTrace(t, "next", b.Program(), 100)
		if len(tr.Uops) != 4 {
			t.Fatalf("%d µops, want 4", len(tr.Uops))
		}
		for i, want := range []bool{false, true, false, false} {
			d := tr.Uops[i]
			if d.Taken() != want || d.PC() != uint32(i) || d.NextPC != uint32(i)+1 {
				t.Errorf("µop %d: pc %d next %d taken %v, want pc %d next %d taken %v",
					i, d.PC(), d.NextPC, d.Taken(), i, i+1, want)
			}
		}
	})
	t.Run("jr past 2^31", func(t *testing.T) {
		const target = 1<<31 + 5
		b := isa.NewBuilder("far")
		b.Li(isa.R1, target)
		b.Jr(isa.R1)
		b.Halt()
		tr := checkTrace(t, "far", b.Program(), 100)
		if len(tr.Uops) != 2 || cap(tr.Uops) != 2 {
			t.Fatalf("len %d cap %d, want the trace to end after the jump", len(tr.Uops), cap(tr.Uops))
		}
		if d := tr.Uops[1]; d.PC() != 1 || d.NextPC != target || !d.Taken() {
			t.Errorf("jr: pc %d next %#x taken %v, want pc 1 next %#x taken", d.PC(), d.NextPC, d.Taken(), uint32(target))
		}
	})
	t.Run("call link", func(t *testing.T) {
		b := isa.NewBuilder("call")
		fn := b.NewLabel()
		b.Nop()
		b.Call(isa.R31, fn) // pc 1
		b.Halt()
		b.Bind(fn)
		b.Ret(isa.R31)
		tr := checkTrace(t, "call", b.Program(), 100)
		if d := tr.Uops[1]; d.PC() != 1 || d.Result != 2 || d.NextPC != 3 || !d.Taken() {
			t.Errorf("call: pc %d link %d next %d taken %v, want pc 1 link 2 next 3 taken", d.PC(), d.Result, d.NextPC, d.Taken())
		}
		if d := tr.Uops[2]; d.PC() != 3 || d.NextPC != 2 || !d.Taken() {
			t.Errorf("ret: pc %d next %d taken %v, want pc 3 next 2 taken", d.PC(), d.NextPC, d.Taken())
		}
	})
}
