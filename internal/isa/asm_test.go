package isa_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// TestDisassembleRoundTripBuiltins pins the tentpole contract of the text
// format: every builtin kernel survives Disassemble -> Assemble with a
// byte-identical binary encoding, so text and binary are interchangeable
// workload sources with the same content-addressed identity.
func TestDisassembleRoundTripBuiltins(t *testing.T) {
	for _, k := range kernels.All() {
		p := k.Build()
		text := isa.Disassemble(p)
		back, err := isa.Assemble("", text)
		if err != nil {
			t.Fatalf("%s: reassemble: %v\n%s", k.Name, err, text)
		}
		enc := p.Encode()
		if len(enc) != cap(enc) {
			t.Errorf("%s: Encode sized its buffer for %d bytes and wrote %d", k.Name, cap(enc), len(enc))
		}
		if !bytes.Equal(enc, back.Encode()) {
			t.Errorf("%s: round trip changed the encoding", k.Name)
		}
		if back.Name != p.Name {
			t.Errorf("%s: round-trip name = %q", k.Name, back.Name)
		}
	}
}

// TestDisassembleRoundTripGenerated does the same over generated corpus
// programs, which exercise grammar paths the builtins may not.
func TestDisassembleRoundTripGenerated(t *testing.T) {
	for _, family := range isa.Families() {
		for seed := uint64(0); seed < 8; seed++ {
			p, err := isa.Generate(family, seed)
			if err != nil {
				t.Fatal(err)
			}
			back, err := isa.Assemble("", isa.Disassemble(p))
			if err != nil {
				t.Fatalf("%s/%d: reassemble: %v", family, seed, err)
			}
			if !bytes.Equal(p.Encode(), back.Encode()) {
				t.Errorf("%s/%d: round trip changed the encoding", family, seed)
			}
		}
	}
}

// gridInsts returns every instruction of every opcode whose Dst, Src1 and
// Src2 each range over regs and whose Imm ranges over imms.
func gridInsts(regs []isa.Reg, imms []int64) []isa.Inst {
	var out []isa.Inst
	for op := isa.NOP; op <= isa.HALT; op++ {
		for _, d := range regs {
			for _, s1 := range regs {
				for _, s2 := range regs {
					for _, imm := range imms {
						out = append(out, isa.Inst{Op: op, Dst: d, Src1: s1, Src2: s2, Imm: imm})
					}
				}
			}
		}
	}
	return out
}

// TestInstStringCoversForms pins the form table's round trip over a grid of
// single-instruction programs: every opcode, each register field r0, r1,
// r31, f0, f31 or '-', and four immediates. Every program Validate accepts
// reassembles from its disassembly to the same bytes, and Inst.String is
// its disassembly line.
func TestInstStringCoversForms(t *testing.T) {
	regs := []isa.Reg{isa.R0, isa.R1, isa.R31, isa.F0, isa.F31, isa.NoReg}
	accepted := 0
	for _, in := range gridInsts(regs, []int64{0, 1, -8, 5}) {
		p := &isa.Program{Insts: []isa.Inst{in}}
		if p.Validate() != nil {
			continue
		}
		accepted++
		text := string(isa.Disassemble(p))
		back, err := isa.Assemble("", []byte(text))
		if err != nil {
			t.Errorf("%q does not reassemble: %v", text, err)
			continue
		}
		if !bytes.Equal(back.Encode(), p.Encode()) {
			t.Errorf("%q reassembles to %+v, want %+v", text, back.Insts[0], in)
		}
		if in.String()+"\n" != text {
			t.Errorf("String() = %q, disassembly %q", in.String(), text)
		}
	}
	t.Logf("%d grid programs validate", accepted)
}

// TestValidateMatchesEmulator pins the form table against the emulator over
// a grid: every opcode, each register field r0, r31, f0, f31 or '-', and
// immediates 0 and 1, followed by a jmp @0, with every register set to 1.
// Validate rejects a program exactly when emu.Trace panics on it, so no form
// misses a register the emulator reads or names one it never reads. The one
// exception is a division by a literal zero with no Src1 (div d, -, #0):
// the emulator never reads Src1 there, and Validate refuses it anyway.
func TestValidateMatchesEmulator(t *testing.T) {
	ones := make(map[isa.Reg]uint64, isa.NumRegs)
	for r := range isa.Reg(isa.NumRegs) {
		ones[r] = 1
	}
	jmp := isa.Inst{Op: isa.JMP, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
	regs := []isa.Reg{isa.R0, isa.R31, isa.F0, isa.F31, isa.NoReg}
	for _, in := range gridInsts(regs, []int64{0, 1}) {
		p := &isa.Program{Name: "grid", Insts: []isa.Inst{in, jmp}, InitRegs: ones}
		rejected := p.Validate() != nil
		panicked := tracePanics(p)
		divByZero := in.Op == isa.DIV && in.Src1 == isa.NoReg && in.Src2 == isa.NoReg && in.Imm == 0
		if rejected != (panicked || divByZero) {
			t.Errorf("%v: Validate rejects it: %v; emu.Trace panics: %v", in, rejected, panicked)
		}
	}
}

// tracePanics reports whether emu.Trace panics on p.
func tracePanics(p *isa.Program) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	emu.Trace(p, 64)
	return false
}

// TestAssembleBasics checks labels, directives, every operand shape, and
// the default-name rule.
func TestAssembleBasics(t *testing.T) {
	src := `
# a tiny but feature-complete program
.name demo
.entry start
.reg r1 4096
.reg f0 0x3ff0000000000000
.data 4096 1 2 3

start:
	movi r2, #0
loop:	ld r3, [r1]     ; comments end the line
	ldx r4, [r1+r2]
	add r2, r2, r3
	st [r1+8], r2
	fld f1, [r1]
	fadd f2, f2, f1
	beq r2, -, loop
	blt r2, r3, @2
	call r31, fn
	jmp loop
fn:	ret r31
`
	p, err := isa.Assemble("fallback", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "demo" {
		t.Errorf("name = %q, want demo (.name overrides the default)", p.Name)
	}
	if p.Entry != 0 {
		t.Errorf("entry = %d, want 0 (start binds pc 0)", p.Entry)
	}
	if p.InitRegs[isa.R1] != 4096 || p.InitRegs[isa.F0] != 0x3ff0000000000000 {
		t.Errorf("init regs = %v", p.InitRegs)
	}
	if len(p.Data) != 1 || p.Data[0].Addr != 4096 || len(p.Data[0].Words) != 3 {
		t.Errorf("data = %+v", p.Data)
	}
	// beq r2, -, loop: compare-to-zero against the label's pc (1).
	var beq *isa.Inst
	for i := range p.Insts {
		if p.Insts[i].Op == isa.BEQ {
			beq = &p.Insts[i]
		}
	}
	if beq == nil || beq.Src2 != isa.NoReg || beq.Imm != 1 {
		t.Errorf("beq = %+v, want Src2=NoReg Imm=1", beq)
	}

	// Default name applies without .name.
	q, err := isa.Assemble("fallback", []byte("nop\njmp @0"))
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "fallback" {
		t.Errorf("name = %q, want fallback", q.Name)
	}
}

// TestAssembleErrors pins the failure modes a corpus author will actually
// hit, each with the offending line number in the message.
func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown mnemonic", "frobnicate r1, r2", "unknown mnemonic"},
		{"bad register", "add rX, r1, r2", "bad register"},
		{"undefined label", "jmp nowhere", `undefined label "nowhere"`},
		{"duplicate label", "a:\na:\nnop", "defined twice"},
		{"bad directive", ".frob 3", "unknown directive"},
		{"missing immediate hash", "movi r1, 42", "must start with '#'"},
		{"operand count", "add r1, r2", "takes 3 operands"},
		{"target out of range", "jmp @99", "out of range"},
		{"raw escape assembles", "raw 28 1 2 3 0", ""}, // ldx via numeric fields
		{"ldx without brackets", "ldx r4, r1, r2", "takes 2 operands"},
		{"empty program", "# nothing", "out of range"},
		{"dup reg init", ".reg r1 1\n.reg r1 2\nnop\njmp @0", "initialized twice"},
		{"FP immediate", "fadd f1, f2, #5", `bad register "#5"`},
		{"reads no register", "add r1, -, r2\njmp @0", `"add r1, -, r2" reads Src1, which names no register`},
		{"store of no register", "st [r1], -\njmp @0", "reads Src2, which names no register"},
		{"indexed ld", "ld r1, [r2+r3]", "bad address"},
		{"operand count with a trailing immediate", "add r1, r2, r3, #4, #5", "add takes 3 operands (or 4), got 5"},
		{"index of no register", "ld r1, [r2+-]", "bad address"},
		{"base of no register", "ld r1, [-]", "bad address"},
	}
	for _, tc := range cases {
		_, err := isa.Assemble("t", []byte(tc.src))
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadSniffsFormat: Load dispatches on the binary magic, so callers can
// hand it either file format without an extension check.
func TestLoadSniffsFormat(t *testing.T) {
	p, err := isa.Generate("branchy", 1)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := isa.Load("ignored", p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin.Encode(), p.Encode()) {
		t.Error("binary Load changed the program")
	}
	txt, err := isa.Load("ignored", isa.Disassemble(p))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(txt.Encode(), p.Encode()) {
		t.Error("text Load changed the program")
	}
	if _, err := isa.Load("x", []byte("VPP2 not a program")); err == nil {
		t.Error("near-magic garbage loaded")
	}
}
