package isa

import "fmt"

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

// Validate checks structural well-formedness: branch targets in range,
// operand register classes consistent with opcodes.
func (p *Program) Validate() error {
	n := int64(len(p.Insts))
	for pc, in := range p.Insts {
		if IsControl(in.Op) {
			cls := ClassOf(in.Op)
			if cls != ClassJumpInd && cls != ClassRet {
				if in.Imm < 0 || in.Imm >= n {
					return fmt.Errorf("%s: pc %d: target %d out of range [0,%d)", p.Name, pc, in.Imm, n)
				}
			}
		}
		for _, r := range [...]Reg{in.Dst, in.Src1, in.Src2} {
			if r != NoReg && !r.Valid() {
				return fmt.Errorf("%s: pc %d: invalid register %d", p.Name, pc, uint8(r))
			}
		}
	}
	if int64(p.Entry) >= n {
		return fmt.Errorf("%s: entry %d out of range", p.Name, p.Entry)
	}
	return nil
}

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
