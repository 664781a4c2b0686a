// Package isa defines the mini-ISA used by the reproduction: a small 64-bit
// RISC-like instruction set rich enough to express the synthetic SPEC-like
// kernels the paper's evaluation needs (integer/FP arithmetic, loads/stores,
// conditional branches, indirect jumps, calls and returns).
//
// The instruction set plays the role of the x86 µops of the paper: every
// instruction is a µop with at most one destination register and two source
// registers, so the value predictor sees exactly one predictable result per
// µop, as in the paper's gem5 setup.
package isa

import "fmt"

// Op is a µop opcode.
type Op uint8

// Opcodes. Integer ALU ops read Imm as their second operand when Src2 ==
// NoReg (the Builder's immediate methods use this encoding); opForms says
// which fields each opcode reads.
const (
	NOP Op = iota

	// Integer ALU (1-cycle class).
	ADD
	SUB
	AND
	OR
	XOR
	SHL // logical shift left by Src2/imm (mod 64)
	SHR // logical shift right
	SRA // arithmetic shift right
	CMPEQ
	CMPLT  // signed less-than -> 0/1
	CMPLTU // unsigned less-than -> 0/1
	MOVI   // Dst = Imm
	MOV    // Dst = Src1

	// Integer multiply / divide (long-latency class).
	MUL
	DIV // signed divide; division by zero yields 0
	REM // signed remainder; by zero yields Src1

	// Floating point (values are float64 bit patterns in 64-bit registers).
	FADD
	FSUB
	FMUL
	FDIV
	FMOV
	FNEG
	FABS
	I2F // int64 -> float64
	F2I // float64 -> int64 (truncating; NaN/overflow yields 0)
	FCMPLT

	// Memory. Addresses are byte addresses; accesses are 8-byte words.
	LD  // Dst = mem[Src1 + Imm]
	LDX // Dst = mem[Src1 + Src2]
	ST  // mem[Src1 + Imm] = Src2
	FLD // FP load: Dst(F) = mem[Src1 + Imm]
	FST // FP store: mem[Src1 + Imm] = Src2(F)

	// Control flow. Targets are absolute instruction indices in Imm, except
	// for the indirect forms which read the target from Src1.
	BEQ  // if Src1 == Src2 goto Imm
	BNE  // if Src1 != Src2 goto Imm
	BLT  // if Src1 <  Src2 (signed) goto Imm
	BGE  // if Src1 >= Src2 (signed) goto Imm
	JMP  // goto Imm
	JR   // goto value(Src1): indirect jump (e.g. switch tables)
	CALL // Dst = return PC; goto Imm
	RET  // goto value(Src1): function return (uses the RAS in the front-end)

	HALT

	numOps
)

// Class groups opcodes by the functional unit pool that executes them and by
// their role in the pipeline front-end.
type Class uint8

const (
	ClassNop Class = iota
	ClassIntAlu
	ClassIntMul
	ClassIntDiv
	ClassFPAlu
	ClassFPMul
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional branch
	ClassJump   // unconditional direct jump
	ClassJumpInd
	ClassCall
	ClassRet
	ClassHalt
)

var opClass = [numOps]Class{
	NOP:    ClassNop,
	ADD:    ClassIntAlu,
	SUB:    ClassIntAlu,
	AND:    ClassIntAlu,
	OR:     ClassIntAlu,
	XOR:    ClassIntAlu,
	SHL:    ClassIntAlu,
	SHR:    ClassIntAlu,
	SRA:    ClassIntAlu,
	CMPEQ:  ClassIntAlu,
	CMPLT:  ClassIntAlu,
	CMPLTU: ClassIntAlu,
	MOVI:   ClassIntAlu,
	MOV:    ClassIntAlu,
	MUL:    ClassIntMul,
	DIV:    ClassIntDiv,
	REM:    ClassIntDiv,
	FADD:   ClassFPAlu,
	FSUB:   ClassFPAlu,
	FMUL:   ClassFPMul,
	FDIV:   ClassFPDiv,
	FMOV:   ClassFPAlu,
	FNEG:   ClassFPAlu,
	FABS:   ClassFPAlu,
	I2F:    ClassFPAlu,
	F2I:    ClassFPAlu,
	FCMPLT: ClassFPAlu,
	LD:     ClassLoad,
	LDX:    ClassLoad,
	ST:     ClassStore,
	FLD:    ClassLoad,
	FST:    ClassStore,
	BEQ:    ClassBranch,
	BNE:    ClassBranch,
	BLT:    ClassBranch,
	BGE:    ClassBranch,
	JMP:    ClassJump,
	JR:     ClassJumpInd,
	CALL:   ClassCall,
	RET:    ClassRet,
	HALT:   ClassHalt,
}

var opName = [numOps]string{
	NOP: "nop", ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SHL: "shl", SHR: "shr", SRA: "sra", CMPEQ: "cmpeq", CMPLT: "cmplt",
	CMPLTU: "cmpltu", MOVI: "movi", MOV: "mov", MUL: "mul", DIV: "div",
	REM: "rem", FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
	FMOV: "fmov", FNEG: "fneg", FABS: "fabs", I2F: "i2f", F2I: "f2i",
	FCMPLT: "fcmplt", LD: "ld", LDX: "ldx", ST: "st", FLD: "fld", FST: "fst",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", JMP: "jmp", JR: "jr",
	CALL: "call", RET: "ret", HALT: "halt",
}

// operand is one operand of an assembly form: how it is written and which
// instruction fields it fills.
type operand uint8

const (
	oDst     operand = iota // Dst: a register, or '-' to discard the result
	oSrc1                   // Src1: a register the emulator reads
	oSrc2                   // Src2: a register the emulator reads
	oSrc2Opt                // Src2: a register, or '-' for zero or the immediate
	oImm                    // Imm: #imm
	oMem                    // Src1 and Imm: [base], [base+off] or [base-off]; the base is read
	oMemX                   // Src1 and Src2: [base+index]; both are read
	oTarget                 // Imm: @N or a label
)

// form lists an opcode's operands in text order. A register field no
// operand names is NoReg and an unnamed Imm is 0, except that a form with
// no operands (nop, halt) leaves every field zero.
type form []operand

var (
	formsNone   = []form{{}}
	formsIntALU = []form{{oDst, oSrc1, oImm}, {oDst, oSrc1, oSrc2Opt}, {oDst, oSrc1, oSrc2Opt, oImm}}
	formsFPALU  = []form{{oDst, oSrc1, oSrc2}, {oDst, oSrc1, oSrc2, oImm}}
	formsUnary  = []form{{oDst, oSrc1}}
	formsLoad   = []form{{oDst, oMem}}
	formsStore  = []form{{oMem, oSrc2}}
	formsBranch = []form{{oSrc1, oSrc2Opt, oTarget}}
	formsInd    = []form{{oSrc1}}
)

// opForms lists each opcode's operand forms, preferred form first. It is
// the one statement of which fields an opcode reads and how they are
// written: Assemble parses by the first form the operands match,
// Disassemble and Inst.String render the first form whose text parses back
// to the same fields, and Validate requires every field a form reads as a
// register to name one.
var opForms = [numOps][]form{
	NOP: formsNone, HALT: formsNone, MOVI: {{oDst, oImm}},
	ADD: formsIntALU, SUB: formsIntALU, AND: formsIntALU, OR: formsIntALU,
	XOR: formsIntALU, SHL: formsIntALU, SHR: formsIntALU, SRA: formsIntALU,
	CMPEQ: formsIntALU, CMPLT: formsIntALU, CMPLTU: formsIntALU,
	MUL: formsIntALU, DIV: formsIntALU, REM: formsIntALU,
	MOV: formsUnary, FMOV: formsUnary, FNEG: formsUnary, FABS: formsUnary,
	I2F: formsUnary, F2I: formsUnary,
	FADD: formsFPALU, FSUB: formsFPALU, FMUL: formsFPALU, FDIV: formsFPALU, FCMPLT: formsFPALU,
	LD: formsLoad, FLD: formsLoad, LDX: {{oDst, oMemX}}, ST: formsStore, FST: formsStore,
	BEQ: formsBranch, BNE: formsBranch, BLT: formsBranch, BGE: formsBranch,
	JMP: {{oTarget}}, JR: formsInd, RET: formsInd, CALL: {{oDst, oTarget}},
}

// ClassOf returns the execution class of op.
func ClassOf(op Op) Class {
	if int(op) >= len(opClass) {
		return ClassNop
	}
	return opClass[op]
}

func (op Op) String() string {
	if int(op) < len(opName) && opName[op] != "" {
		return opName[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsControl reports whether op redirects the PC (any branch/jump/call/ret).
func IsControl(op Op) bool {
	switch ClassOf(op) {
	case ClassBranch, ClassJump, ClassJumpInd, ClassCall, ClassRet:
		return true
	}
	return false
}

// IsConditional reports whether op is a conditional branch (the only control
// µops whose direction the TAGE predictor guesses).
func IsConditional(op Op) bool { return ClassOf(op) == ClassBranch }

// IsMem reports whether op accesses data memory.
func IsMem(op Op) bool {
	c := ClassOf(op)
	return c == ClassLoad || c == ClassStore
}

// IsLoad reports whether op reads data memory.
func IsLoad(op Op) bool { return ClassOf(op) == ClassLoad }

// IsStore reports whether op writes data memory.
func IsStore(op Op) bool { return ClassOf(op) == ClassStore }
