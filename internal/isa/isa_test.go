package isa

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRegClass(t *testing.T) {
	tests := []struct {
		r     Reg
		fp    bool
		valid bool
	}{
		{R0, false, true},
		{R31, false, true},
		{F0, true, true},
		{F31, true, true},
		{NoReg, false, false},
		{Reg(64), false, false},
	}
	for _, tt := range tests {
		if got := tt.r.IsFP(); got != tt.fp {
			t.Errorf("%v.IsFP() = %v, want %v", tt.r, got, tt.fp)
		}
		if got := tt.r.Valid(); got != tt.valid {
			t.Errorf("%v.Valid() = %v, want %v", tt.r, got, tt.valid)
		}
	}
}

func TestOpClassification(t *testing.T) {
	tests := []struct {
		op      Op
		control bool
		cond    bool
		mem     bool
		load    bool
		store   bool
	}{
		{ADD, false, false, false, false, false},
		{MUL, false, false, false, false, false},
		{FDIV, false, false, false, false, false},
		{LD, false, false, true, true, false},
		{LDX, false, false, true, true, false},
		{FLD, false, false, true, true, false},
		{ST, false, false, true, false, true},
		{FST, false, false, true, false, true},
		{BEQ, true, true, false, false, false},
		{BNE, true, true, false, false, false},
		{JMP, true, false, false, false, false},
		{JR, true, false, false, false, false},
		{CALL, true, false, false, false, false},
		{RET, true, false, false, false, false},
		{HALT, false, false, false, false, false},
	}
	for _, tt := range tests {
		if got := IsControl(tt.op); got != tt.control {
			t.Errorf("IsControl(%v) = %v, want %v", tt.op, got, tt.control)
		}
		if got := IsConditional(tt.op); got != tt.cond {
			t.Errorf("IsConditional(%v) = %v, want %v", tt.op, got, tt.cond)
		}
		if got := IsMem(tt.op); got != tt.mem {
			t.Errorf("IsMem(%v) = %v, want %v", tt.op, got, tt.mem)
		}
		if got := IsLoad(tt.op); got != tt.load {
			t.Errorf("IsLoad(%v) = %v, want %v", tt.op, got, tt.load)
		}
		if got := IsStore(tt.op); got != tt.store {
			t.Errorf("IsStore(%v) = %v, want %v", tt.op, got, tt.store)
		}
	}
}

func TestEveryOpHasNameAndClass(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
		// Only NOP may map to ClassNop.
		if op != NOP && ClassOf(op) == ClassNop && op.String() != "nop" {
			t.Errorf("op %v has no class", op)
		}
	}
}

func TestHasDest(t *testing.T) {
	tests := []struct {
		in   Inst
		want bool
	}{
		{Inst{Op: ADD, Dst: R1, Src1: R2, Src2: R3}, true},
		{Inst{Op: LD, Dst: R1, Src1: R2}, true},
		{Inst{Op: ST, Dst: NoReg, Src1: R2, Src2: R3}, false},
		{Inst{Op: CALL, Dst: R31}, false}, // control µops are never VP-eligible
		{Inst{Op: BEQ, Dst: NoReg, Src1: R1, Src2: R2}, false},
	}
	for _, tt := range tests {
		if got := tt.in.HasDest(); got != tt.want {
			t.Errorf("%v.HasDest() = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestBuilderLabelResolution(t *testing.T) {
	b := NewBuilder("t")
	b.Li(R1, 0)
	loop := b.Here()
	b.Addi(R1, R1, 1)
	b.Cmplti(R2, R1, 10)
	b.Bnez(R2, loop)
	b.Halt()
	p := b.Program()

	if got := p.Insts[3]; got.Op != BNE || got.Imm != 1 {
		t.Errorf("branch not patched to loop head: %v", got)
	}
}

func TestBuilderForwardLabel(t *testing.T) {
	b := NewBuilder("t")
	done := b.NewLabel()
	b.Li(R1, 5)
	b.Beqz(R1, done)
	b.Li(R1, 7)
	b.Bind(done)
	b.Halt()
	p := b.Program()
	if got := p.Insts[1].Imm; got != 3 {
		t.Errorf("forward branch target = %d, want 3", got)
	}
}

func TestBuilderPanicsOnWrongClass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with FP register did not panic")
		}
	}()
	b := NewBuilder("t")
	b.Add(F1, R1, R2)
}

func TestBuilderPanicsOnUnboundLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbound label did not panic")
		}
	}()
	b := NewBuilder("t")
	l := b.NewLabel()
	b.Jmp(l)
	b.Program()
}

func TestValidateRejectsBadTarget(t *testing.T) {
	p := &Program{Name: "bad", Insts: []Inst{{Op: JMP, Imm: 99}}}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range branch target")
	}
}

// TestValidateRejectsBadRegister: a register field must name one of the 64
// registers, or NoReg where the opcode's forms allow it, and every initial
// register must be one of the 64.
func TestValidateRejectsBadRegister(t *testing.T) {
	jmp := Inst{Op: JMP, Dst: NoReg, Src1: NoReg, Src2: NoReg}
	cases := []struct {
		name     string
		in       Inst
		initRegs map[Reg]uint64
	}{
		{"register 99", Inst{Op: ADD, Dst: Reg(99), Src1: R0, Src2: R1}, nil},
		{"ALU Src1 -", Inst{Op: ADD, Dst: R1, Src1: NoReg, Src2: R2}, nil},
		{"FP Src2 -", Inst{Op: FADD, Dst: F1, Src1: F2, Src2: NoReg, Imm: 5}, nil},
		{"store value -", Inst{Op: ST, Dst: NoReg, Src1: R1, Src2: NoReg}, nil},
		{"load base -", Inst{Op: LD, Dst: R1, Src1: NoReg, Src2: NoReg}, nil},
		{"index -", Inst{Op: LDX, Dst: R1, Src1: R2, Src2: NoReg}, nil},
		{"branch Src1 -", Inst{Op: BEQ, Dst: NoReg, Src1: NoReg, Src2: R1}, nil},
		{"ret -", Inst{Op: RET, Dst: NoReg, Src1: NoReg, Src2: NoReg}, nil},
		{"initial register 200", Inst{Op: NOP}, map[Reg]uint64{200: 1}},
		{"initial register -", Inst{Op: NOP}, map[Reg]uint64{NoReg: 1}},
	}
	for _, tc := range cases {
		p := &Program{Name: "bad", Insts: []Inst{tc.in, jmp}, InitRegs: tc.initRegs}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %v", tc.name, tc.in)
		}
	}
	ok := &Program{Name: "ok", Insts: []Inst{
		{Op: ADD, Dst: NoReg, Src1: R1, Src2: NoReg}, // '-' destination, immediate operand
		{Op: BEQ, Dst: NoReg, Src1: R1, Src2: NoReg}, // compare with zero
		{Op: ADD, Dst: F1, Src1: R2, Src2: R3},       // no register classes
		jmp,
	}, InitRegs: map[Reg]uint64{R0: 1, F31: 2}}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate refused a runnable program: %v", err)
	}
}

// TestValidateRejectsUnwritableName pins the names Validate refuses: those
// a .name line cannot carry, because Disassemble's text would assemble to
// a different program (a comment, a label, an extra line, trimmed spaces).
// Every name it accepts round-trips through the text form, and a text file
// with no .name takes its default name through the same check.
func TestValidateRejectsUnwritableName(t *testing.T) {
	halt := []Inst{{Op: HALT, Dst: NoReg, Src1: NoReg, Src2: NoReg}}
	for _, name := range []string{"a;b", " a", "a ", "a\u00a0", "a\nnop", "a:b", "\ta", "a\r", "a\n"} {
		p := &Program{Name: name, Insts: halt}
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted the name %q", name)
		}
	}
	for _, name := range []string{"", "a", "gzip", "branchy-1", "a b", "a#b", "#a", "a\tb", "a\rb", "a\u00a0b"} {
		p := &Program{Name: name, Insts: halt}
		if err := p.Validate(); err != nil {
			t.Errorf("Validate refused the name %q: %v", name, err)
			continue
		}
		back, err := Assemble("", Disassemble(p))
		if err != nil {
			t.Errorf("%q: the disassembly does not assemble: %v", name, err)
			continue
		}
		if !bytes.Equal(back.Encode(), p.Encode()) {
			t.Errorf("%q: the disassembly assembles to %q", name, back.Name)
		}
	}
	if _, err := Assemble("a:b", []byte("halt")); err == nil {
		t.Error("a text source with no .name took the unwritable default name a:b")
	}
	if p, err := Assemble("a:b", []byte(".name ab\nhalt")); err != nil || p.Name != "ab" {
		t.Errorf("a .name line did not replace the default name: %v", err)
	}
}

// Property: register String/IsFP agree — every FP register's name starts
// with 'f', every valid integer register's with 'r'.
func TestRegStringProperty(t *testing.T) {
	f := func(n uint8) bool {
		r := Reg(n % NumRegs)
		s := r.String()
		if r.IsFP() {
			return s[0] == 'f'
		}
		return s[0] == 'r'
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
