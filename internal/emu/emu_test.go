package emu

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// buildLoop assembles: sum = 0; for i in 0..n-1 { sum += i }; halt.
func buildLoop(n int64) *isa.Program {
	b := isa.NewBuilder("loop")
	b.Li(isa.R1, 0) // i
	b.Li(isa.R2, 0) // sum
	b.Li(isa.R3, n)
	loop := b.Here()
	b.Add(isa.R2, isa.R2, isa.R1)
	b.Addi(isa.R1, isa.R1, 1)
	b.Blt(isa.R1, isa.R3, loop)
	b.Halt()
	return b.Program()
}

func TestLoopSum(t *testing.T) {
	p := buildLoop(10)
	m := New(p)
	for {
		if _, ok := m.Step(); !ok {
			break
		}
	}
	if got, want := m.Reg(isa.R2), uint64(45); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if !m.Halted() {
		t.Error("machine did not halt")
	}
}

func TestIntOps(t *testing.T) {
	tests := []struct {
		name  string
		build func(b *isa.Builder)
		reg   isa.Reg
		want  uint64
	}{
		{"add", func(b *isa.Builder) { b.Li(isa.R1, 3); b.Addi(isa.R2, isa.R1, 4) }, isa.R2, 7},
		{"sub", func(b *isa.Builder) { b.Li(isa.R1, 3); b.Subi(isa.R2, isa.R1, 5) }, isa.R2, ^uint64(1)},
		{"and", func(b *isa.Builder) { b.Li(isa.R1, 0xF0); b.Andi(isa.R2, isa.R1, 0x3C) }, isa.R2, 0x30},
		{"or", func(b *isa.Builder) { b.Li(isa.R1, 0xF0); b.Ori(isa.R2, isa.R1, 0x0F) }, isa.R2, 0xFF},
		{"xor", func(b *isa.Builder) { b.Li(isa.R1, 0xFF); b.Xori(isa.R2, isa.R1, 0x0F) }, isa.R2, 0xF0},
		{"shl", func(b *isa.Builder) { b.Li(isa.R1, 1); b.Shli(isa.R2, isa.R1, 10) }, isa.R2, 1024},
		{"shr", func(b *isa.Builder) { b.Li(isa.R1, 1024); b.Shri(isa.R2, isa.R1, 3) }, isa.R2, 128},
		{"sra", func(b *isa.Builder) { b.Li(isa.R1, -16); b.Srai(isa.R2, isa.R1, 2) }, isa.R2, ^uint64(3)},
		{"cmpeq", func(b *isa.Builder) { b.Li(isa.R1, 5); b.Li(isa.R2, 5); b.Cmpeq(isa.R3, isa.R1, isa.R2) }, isa.R3, 1},
		{"cmplt", func(b *isa.Builder) { b.Li(isa.R1, -1); b.Cmplti(isa.R2, isa.R1, 0) }, isa.R2, 1},
		{"mul", func(b *isa.Builder) { b.Li(isa.R1, 7); b.Muli(isa.R2, isa.R1, 6) }, isa.R2, 42},
		{"div", func(b *isa.Builder) { b.Li(isa.R1, 42); b.Li(isa.R2, 6); b.Div(isa.R3, isa.R1, isa.R2) }, isa.R3, 7},
		{"divzero", func(b *isa.Builder) { b.Li(isa.R1, 42); b.Li(isa.R2, 0); b.Div(isa.R3, isa.R1, isa.R2) }, isa.R3, 0},
		{"rem", func(b *isa.Builder) { b.Li(isa.R1, 43); b.Remi(isa.R2, isa.R1, 6) }, isa.R2, 1},
		{"mov", func(b *isa.Builder) { b.Li(isa.R1, 99); b.Mov(isa.R2, isa.R1) }, isa.R2, 99},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := isa.NewBuilder(tt.name)
			tt.build(b)
			b.Halt()
			m := New(b.Program())
			for {
				if _, ok := m.Step(); !ok {
					break
				}
			}
			if got := m.Reg(tt.reg); got != tt.want {
				t.Errorf("%s = %#x, want %#x", tt.reg, got, tt.want)
			}
		})
	}
}

func TestFPOps(t *testing.T) {
	b := isa.NewBuilder("fp")
	b.DataF(0x1000, 2.5, 4.0)
	b.Li(isa.R1, 0x1000)
	b.Fld(isa.F1, isa.R1, 0)
	b.Fld(isa.F2, isa.R1, 8)
	b.Fadd(isa.F3, isa.F1, isa.F2)   // 6.5
	b.Fmul(isa.F4, isa.F1, isa.F2)   // 10.0
	b.Fsub(isa.F5, isa.F2, isa.F1)   // 1.5
	b.Fdiv(isa.F6, isa.F2, isa.F1)   // 1.6
	b.Fneg(isa.F7, isa.F1)           // -2.5
	b.Fabs(isa.F8, isa.F7)           // 2.5
	b.Fcmplt(isa.R2, isa.F1, isa.F2) // 1
	b.F2i(isa.R3, isa.F4)            // 10
	b.Li(isa.R4, 3)
	b.I2f(isa.F9, isa.R4) // 3.0
	b.Halt()
	m := New(b.Program())
	for {
		if _, ok := m.Step(); !ok {
			break
		}
	}
	checkF := func(r isa.Reg, want float64) {
		t.Helper()
		if got := math.Float64frombits(m.Reg(r)); got != want {
			t.Errorf("%v = %g, want %g", r, got, want)
		}
	}
	checkF(isa.F3, 6.5)
	checkF(isa.F4, 10.0)
	checkF(isa.F5, 1.5)
	checkF(isa.F6, 1.6)
	checkF(isa.F7, -2.5)
	checkF(isa.F8, 2.5)
	checkF(isa.F9, 3.0)
	if m.Reg(isa.R2) != 1 {
		t.Errorf("fcmplt = %d, want 1", m.Reg(isa.R2))
	}
	if m.Reg(isa.R3) != 10 {
		t.Errorf("f2i = %d, want 10", m.Reg(isa.R3))
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	b := isa.NewBuilder("mem")
	b.Li(isa.R1, 0x2000)
	b.Li(isa.R2, 0xDEADBEEF)
	b.St(isa.R1, 16, isa.R2)
	b.Ld(isa.R3, isa.R1, 16)
	b.Li(isa.R4, 16)
	b.Ldx(isa.R5, isa.R1, isa.R4)
	b.Halt()
	m := New(b.Program())
	for {
		if _, ok := m.Step(); !ok {
			break
		}
	}
	if got := m.Reg(isa.R3); got != 0xDEADBEEF {
		t.Errorf("ld = %#x, want 0xDEADBEEF", got)
	}
	if got := m.Reg(isa.R5); got != 0xDEADBEEF {
		t.Errorf("ldx = %#x, want 0xDEADBEEF", got)
	}
}

func TestUninitializedMemoryReadsZero(t *testing.T) {
	m := New(&isa.Program{Name: "empty", Insts: []isa.Inst{{Op: isa.HALT}}})
	if got := m.ReadMem(0x123456); got != 0 {
		t.Errorf("uninitialized read = %d, want 0", got)
	}
}

func TestCallRet(t *testing.T) {
	b := isa.NewBuilder("callret")
	fn := b.NewLabel()
	b.Li(isa.R1, 1)
	b.Call(isa.R31, fn)
	b.Addi(isa.R1, isa.R1, 100) // after return: 1+10+100 = 111
	b.Halt()
	b.Bind(fn)
	b.Addi(isa.R1, isa.R1, 10)
	b.Ret(isa.R31)
	p := b.Program()
	m := New(p)
	var dyns []isa.DynInst
	for {
		d, ok := m.Step()
		if !ok {
			break
		}
		dyns = append(dyns, d)
	}
	if got := m.Reg(isa.R1); got != 111 {
		t.Errorf("R1 = %d, want 111", got)
	}
	// CALL must record the link value and the correct NextPC.
	var call isa.DynInst
	found := false
	for _, d := range dyns {
		if p.Insts[d.PC()].Op == isa.CALL {
			call, found = d, true
		}
	}
	if !found {
		t.Fatal("no CALL in trace")
	}
	if call.Result != uint64(call.PC())+1 {
		t.Errorf("call link = %d, want %d", call.Result, call.PC()+1)
	}
}

func TestDynInstFieldsForBranch(t *testing.T) {
	p := buildLoop(3)
	tr := Trace(p, 1000)
	takenSeen := 0
	for i, d := range tr.Uops {
		if tr.Inst(i).Op == isa.BLT {
			if d.Taken() {
				takenSeen++
				if d.NextPC != 3 {
					t.Errorf("taken branch NextPC = %d, want 3", d.NextPC)
				}
			} else if d.NextPC != d.PC()+1 {
				t.Errorf("not-taken branch NextPC = %d, want %d", d.NextPC, d.PC()+1)
			}
		}
	}
	if takenSeen != 2 {
		t.Errorf("taken branches = %d, want 2", takenSeen)
	}
}

// TestTraceSeqIsDense checks that a µop's index is its sequence number:
// the trace holds every executed µop, in order, with no gap, so each µop
// starts where the one before it went.
func TestTraceSeqIsDense(t *testing.T) {
	tr := Trace(buildLoop(50), 10000)
	if tr.Uops[0].PC() != 0 {
		t.Fatalf("trace starts at pc %d, want the entry 0", tr.Uops[0].PC())
	}
	for i := 1; i < len(tr.Uops); i++ {
		if tr.Uops[i].PC() != tr.Uops[i-1].NextPC {
			t.Fatalf("trace[%d] at pc %d, but trace[%d] went to %d", i, tr.Uops[i].PC(), i-1, tr.Uops[i-1].NextPC)
		}
	}
}

func TestTraceMaxUops(t *testing.T) {
	tr := Trace(buildLoop(1_000_000), 100)
	if len(tr.Uops) != 100 {
		t.Errorf("len(trace) = %d, want 100", len(tr.Uops))
	}
}

// TestHaltingTraceIsTrimmed checks that a trace that ends before maxUops
// holds no more memory than its µops: callers keep traces for a session's
// life, so a spare maxUops-long array would stay alive with it.
func TestHaltingTraceIsTrimmed(t *testing.T) {
	tr := Trace(buildLoop(3), 100_000)
	if len(tr.Uops) == 0 || len(tr.Uops) >= 100_000 {
		t.Fatalf("len = %d, want a short trace that halted", len(tr.Uops))
	}
	if cap(tr.Uops) != len(tr.Uops) {
		t.Errorf("cap = %d for %d µops, want equal", cap(tr.Uops), len(tr.Uops))
	}
}

// Property: the emulator is deterministic — two traces of the same program
// are identical.
func TestDeterminism(t *testing.T) {
	f := func(n uint16) bool {
		iters := int64(n%100) + 1
		a := Trace(buildLoop(iters), 5000).Uops
		b := Trace(buildLoop(iters), 5000).Uops
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: word-granular memory writes are readable back for arbitrary
// addresses (aligned down to 8 bytes).
func TestMemReadWriteProperty(t *testing.T) {
	m := New(&isa.Program{Name: "p", Insts: []isa.Inst{{Op: isa.HALT}}})
	f := func(addr uint64, v uint64) bool {
		addr &= 0xFFFFFFF8
		m.WriteMem(addr, v)
		return m.ReadMem(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
