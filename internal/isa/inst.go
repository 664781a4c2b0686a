package isa

import "fmt"

// Reg names an architectural register. R0..R31 are the integer registers,
// F0..F31 the floating-point registers (held as float64 bit patterns).
// NoReg marks an absent operand; an absent Src2 on an integer ALU op selects
// the immediate operand instead.
type Reg uint8

// NumRegs is the total architectural register count (32 INT + 32 FP).
const NumRegs = 64

// NoReg marks an unused register slot.
const NoReg Reg = 255

// Integer registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// Floating-point registers.
const (
	F0 Reg = iota + 32
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
	F16
	F17
	F18
	F19
	F20
	F21
	F22
	F23
	F24
	F25
	F26
	F27
	F28
	F29
	F30
	F31
)

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r >= 32 && r < 64 }

// Valid reports whether r names a real register.
func (r Reg) Valid() bool { return r < NumRegs }

func (r Reg) String() string {
	switch {
	case r == NoReg:
		return "-"
	case r.IsFP():
		return fmt.Sprintf("f%d", r-32)
	case r.Valid():
		return fmt.Sprintf("r%d", r)
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// Inst is one static instruction (µop). Branch targets live in Imm as
// absolute instruction indices. Integer ALU ops with Src2 == NoReg use Imm as
// the second operand.
type Inst struct {
	Op   Op
	Dst  Reg
	Src1 Reg
	Src2 Reg
	Imm  int64
}

// HasDest reports whether the instruction writes a register that value
// prediction could target. Control µops never qualify (the paper predicts
// values feeding branches, not branches themselves; CALL's link value is
// produced by the front-end).
func (in Inst) HasDest() bool {
	return in.Dst != NoReg && !IsControl(in.Op)
}

// String returns the instruction's disassembly line (see Disassemble).
func (in Inst) String() string { return renderInst(in) }
