package isa

import (
	"fmt"
	"strings"
)

// DataSeg seeds a region of data memory before a program runs.
type DataSeg struct {
	Addr  uint64   // byte address of the first word (8-byte aligned)
	Words []uint64 // initial 64-bit word contents
}

// Program is a static µop sequence plus its initial machine state. PCs are
// instruction indices starting at Entry.
type Program struct {
	Name     string
	Insts    []Inst
	Entry    uint32
	Data     []DataSeg
	InitRegs map[Reg]uint64
}

// Validate checks that the emulator can run p and that its text form is p:
// every opcode is known, every register field names a register or NoReg,
// every field its opcode's forms read as a register (opForms) names one,
// every initial register is a register, the entry and every direct branch
// target are instruction indices, and the name fits a .name line (no
// surrounding spaces, no ';', ':' or newline, which the assembler reads as
// a comment, a label or the next line). It checks no register classes (add
// f1, r2, r3 is valid). It refuses one program the emulator could run: a
// division by a literal zero with no Src1 (div r1, -, #0), which never
// reads Src1.
func (p *Program) Validate() error {
	if strings.TrimSpace(p.Name) != p.Name || strings.ContainsAny(p.Name, ";:\n") {
		return fmt.Errorf("program name %q does not fit a .name line (surrounding spaces, ';', ':' or a newline)", p.Name)
	}
	n := int64(len(p.Insts))
	for pc, in := range p.Insts {
		if in.Op >= numOps {
			return fmt.Errorf("%s: pc %d: unknown opcode %d", p.Name, pc, uint8(in.Op))
		}
		if IsControl(in.Op) {
			cls := ClassOf(in.Op)
			if cls != ClassJumpInd && cls != ClassRet {
				if in.Imm < 0 || in.Imm >= n {
					return fmt.Errorf("%s: pc %d: target %d out of range [0,%d)", p.Name, pc, in.Imm, n)
				}
			}
		}
		for i, r := range [...]Reg{in.Dst, in.Src1, in.Src2} {
			switch {
			case r != NoReg && !r.Valid():
				return fmt.Errorf("%s: pc %d: invalid register %d", p.Name, pc, uint8(r))
			case r == NoReg && readsReg[in.Op][i]:
				return fmt.Errorf("%s: pc %d: %q reads Src%d, which names no register", p.Name, pc, in, i)
			}
		}
	}
	for r := range p.InitRegs {
		if !r.Valid() {
			return fmt.Errorf("%s: initial register %d is not a register", p.Name, uint8(r))
		}
	}
	if int64(p.Entry) >= n {
		return fmt.Errorf("%s: entry %d out of range", p.Name, p.Entry)
	}
	return nil
}

// readsReg records, per opcode, whether its forms read Src1 (index 1) and
// Src2 (index 2) as registers: the emulator indexes its register file with
// those fields. It never reads Dst (index 0).
var readsReg = func() (t [numOps][3]bool) {
	for op, forms := range opForms {
		for _, f := range forms {
			for _, o := range f {
				t[op][1] = t[op][1] || o == oSrc1 || o == oMem || o == oMemX
				t[op][2] = t[op][2] || o == oSrc2 || o == oMemX
			}
		}
	}
	return t
}()

// DynInst is one dynamic µop as produced by the functional emulator: what
// this execution of the instruction at PC adds to the static instruction.
// The opcode and registers are the program's (see Trace), and a µop's
// sequence number is its index in the trace, so the record holds 24 bytes.
type DynInst struct {
	pc     uint32 // static instruction index; takenBit holds Taken
	NextPC uint32 // architecturally correct next PC (any value: JR and RET jump to a register's)
	Result uint64 // value written to the destination register, if any
	Addr   uint64 // effective address for memory µops
}

// takenBit is the bit of DynInst.pc that holds Taken. PCs never reach it:
// the emulator emits a µop only for a PC inside the program, and no program
// has 2^31 instructions.
const takenBit = 1 << 31

// PC returns the µop's static instruction index.
func (d *DynInst) PC() uint32 { return d.pc &^ takenBit }

// SetPC sets the µop's static instruction index. It panics on a PC of 2^31
// or more, which no program can reach.
func (d *DynInst) SetPC(pc uint32) {
	if pc&takenBit != 0 {
		panic(fmt.Sprintf("isa: pc %d out of range", pc))
	}
	d.pc = pc | d.pc&takenBit
}

// Taken returns the control-flow outcome (valid for control µops).
func (d *DynInst) Taken() bool { return d.pc&takenBit != 0 }

// SetTaken sets the control-flow outcome.
func (d *DynInst) SetTaken(taken bool) {
	if taken {
		d.pc |= takenBit
	} else {
		d.pc &^= takenBit
	}
}

// Trace is the dynamic µop stream of one program run together with the
// program's instructions: µop i is the i-th to execute, so i is its
// sequence number, and its opcode and registers are Insts[Uops[i].PC()].
// Insts is the trace's own copy, so a later edit of the program cannot
// change a trace already made.
type Trace struct {
	Insts []Inst
	Uops  []DynInst
}

// Inst returns the static instruction µop i executed.
func (t Trace) Inst(i int) Inst { return t.Insts[t.Uops[i].PC()] }
