// Package emu is the functional emulator for the mini-ISA: it executes a
// program architecturally, one µop at a time, producing the dynamic µop
// stream (with actual result values, effective addresses, and branch
// outcomes) that drives the trace-driven timing model. It plays the role of
// gem5's functional front in the paper's setup.
package emu

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/isa"
)

const (
	pageShift = 12 // 4 KiB pages
	pageWords = 1 << (pageShift - 3)
)

type page [pageWords]uint64

// Machine is the architectural state of one running program. The zero value
// is not usable; create machines with New.
type Machine struct {
	prog   *isa.Program
	regs   [isa.NumRegs]uint64
	mem    map[uint64]*page
	pc     uint32
	halted bool
}

// New creates a machine loaded with p's initial state.
func New(p *isa.Program) *Machine {
	m := &Machine{
		prog: p,
		mem:  make(map[uint64]*page),
		pc:   p.Entry,
	}
	for _, seg := range p.Data {
		for i, w := range seg.Words {
			m.WriteMem(seg.Addr+uint64(i)*8, w)
		}
	}
	for r, v := range p.InitRegs {
		m.regs[r] = v
	}
	return m
}

// Halted reports whether the program has executed HALT.
func (m *Machine) Halted() bool { return m.halted }

// PC returns the next µop's static index.
func (m *Machine) PC() uint32 { return m.pc }

// Reg returns the current architectural value of r.
func (m *Machine) Reg(r isa.Reg) uint64 { return m.regs[r] }

// ReadMem returns the 8-byte word at byte address addr (aligned down).
func (m *Machine) ReadMem(addr uint64) uint64 {
	pg, ok := m.mem[addr>>pageShift]
	if !ok {
		return 0
	}
	return pg[(addr>>3)&(pageWords-1)]
}

// WriteMem stores an 8-byte word at byte address addr (aligned down).
func (m *Machine) WriteMem(addr uint64, v uint64) {
	key := addr >> pageShift
	pg, ok := m.mem[key]
	if !ok {
		pg = new(page)
		m.mem[key] = pg
	}
	pg[(addr>>3)&(pageWords-1)] = v
}

func (m *Machine) src2(in isa.Inst) uint64 {
	if in.Src2 == isa.NoReg {
		return uint64(in.Imm)
	}
	return m.regs[in.Src2]
}

// Step executes one µop and returns its dynamic record. ok is false once the
// machine has halted (the HALT µop itself is returned with ok true).
func (m *Machine) Step() (d isa.DynInst, ok bool) {
	if m.halted {
		return isa.DynInst{}, false
	}
	if int(m.pc) >= len(m.prog.Insts) {
		m.halted = true
		return isa.DynInst{}, false
	}
	in := m.prog.Insts[m.pc]
	d.SetPC(m.pc)
	next := m.pc + 1
	taken := false

	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		d.Result = m.regs[in.Src1] + m.src2(in)
	case isa.SUB:
		d.Result = m.regs[in.Src1] - m.src2(in)
	case isa.AND:
		d.Result = m.regs[in.Src1] & m.src2(in)
	case isa.OR:
		d.Result = m.regs[in.Src1] | m.src2(in)
	case isa.XOR:
		d.Result = m.regs[in.Src1] ^ m.src2(in)
	case isa.SHL:
		d.Result = m.regs[in.Src1] << (m.src2(in) & 63)
	case isa.SHR:
		d.Result = m.regs[in.Src1] >> (m.src2(in) & 63)
	case isa.SRA:
		d.Result = uint64(int64(m.regs[in.Src1]) >> (m.src2(in) & 63))
	case isa.CMPEQ:
		d.Result = b2u(m.regs[in.Src1] == m.src2(in))
	case isa.CMPLT:
		d.Result = b2u(int64(m.regs[in.Src1]) < int64(m.src2(in)))
	case isa.CMPLTU:
		d.Result = b2u(m.regs[in.Src1] < m.src2(in))
	case isa.MOVI:
		d.Result = uint64(in.Imm)
	case isa.MOV:
		d.Result = m.regs[in.Src1]
	case isa.MUL:
		d.Result = m.regs[in.Src1] * m.src2(in)
	case isa.DIV:
		if v := int64(m.src2(in)); v != 0 {
			d.Result = uint64(int64(m.regs[in.Src1]) / v)
		}
	case isa.REM:
		if v := int64(m.src2(in)); v != 0 {
			d.Result = uint64(int64(m.regs[in.Src1]) % v)
		} else {
			d.Result = m.regs[in.Src1]
		}

	case isa.FADD:
		d.Result = fop(m.regs[in.Src1], m.regs[in.Src2], func(a, b float64) float64 { return a + b })
	case isa.FSUB:
		d.Result = fop(m.regs[in.Src1], m.regs[in.Src2], func(a, b float64) float64 { return a - b })
	case isa.FMUL:
		d.Result = fop(m.regs[in.Src1], m.regs[in.Src2], func(a, b float64) float64 { return a * b })
	case isa.FDIV:
		d.Result = fop(m.regs[in.Src1], m.regs[in.Src2], func(a, b float64) float64 {
			if b == 0 {
				return 0
			}
			return a / b
		})
	case isa.FMOV:
		d.Result = m.regs[in.Src1]
	case isa.FNEG:
		d.Result = math.Float64bits(-math.Float64frombits(m.regs[in.Src1]))
	case isa.FABS:
		d.Result = math.Float64bits(math.Abs(math.Float64frombits(m.regs[in.Src1])))
	case isa.I2F:
		d.Result = math.Float64bits(float64(int64(m.regs[in.Src1])))
	case isa.F2I:
		f := math.Float64frombits(m.regs[in.Src1])
		if !math.IsNaN(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			d.Result = uint64(int64(f))
		}
	case isa.FCMPLT:
		d.Result = b2u(math.Float64frombits(m.regs[in.Src1]) < math.Float64frombits(m.regs[in.Src2]))

	case isa.LD, isa.FLD:
		d.Addr = m.regs[in.Src1] + uint64(in.Imm)
		d.Result = m.ReadMem(d.Addr)
	case isa.LDX:
		d.Addr = m.regs[in.Src1] + m.regs[in.Src2]
		d.Result = m.ReadMem(d.Addr)
	case isa.ST, isa.FST:
		d.Addr = m.regs[in.Src1] + uint64(in.Imm)
		m.WriteMem(d.Addr, m.regs[in.Src2])

	case isa.BEQ:
		taken = m.regs[in.Src1] == m.src2branch(in)
	case isa.BNE:
		taken = m.regs[in.Src1] != m.src2branch(in)
	case isa.BLT:
		taken = int64(m.regs[in.Src1]) < int64(m.src2branch(in))
	case isa.BGE:
		taken = int64(m.regs[in.Src1]) >= int64(m.src2branch(in))
	case isa.JMP:
		taken = true
		next = uint32(in.Imm)
	case isa.JR:
		taken = true
		next = uint32(m.regs[in.Src1])
	case isa.CALL:
		taken = true
		d.Result = uint64(m.pc) + 1
		next = uint32(in.Imm)
	case isa.RET:
		taken = true
		next = uint32(m.regs[in.Src1])
	case isa.HALT:
		m.halted = true
	default:
		panic(fmt.Sprintf("emu: unknown opcode %v at pc %d", in.Op, m.pc))
	}

	if isa.IsConditional(in.Op) && taken {
		next = uint32(in.Imm)
	}
	if in.Dst != isa.NoReg {
		m.regs[in.Dst] = d.Result
	}
	d.SetTaken(taken)
	d.NextPC = next
	m.pc = next
	return d, true
}

// src2branch reads the second comparison operand of a conditional branch:
// Src2 == NoReg means compare against zero (Beqz/Bnez forms); the immediate
// slot holds the branch target, never an operand.
func (m *Machine) src2branch(in isa.Inst) uint64 {
	if in.Src2 == isa.NoReg {
		return 0
	}
	return m.regs[in.Src2]
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func fop(a, b uint64, f func(x, y float64) float64) uint64 {
	return math.Float64bits(f(math.Float64frombits(a), math.Float64frombits(b)))
}

// Trace executes p for at most maxUops µops and returns the dynamic stream
// with a copy of p's instructions. The trace ends early if the program
// halts; its µop slice then holds exactly the µops executed, so a short
// trace does not keep a maxUops-long array alive.
func Trace(p *isa.Program, maxUops int) isa.Trace {
	m := New(p)
	out := make([]isa.DynInst, 0, maxUops)
	for len(out) < maxUops {
		d, ok := m.Step()
		if !ok {
			break
		}
		out = append(out, d)
	}
	if len(out) < cap(out) {
		out = append(make([]isa.DynInst, 0, len(out)), out...)
	}
	return isa.Trace{Insts: slices.Clone(p.Insts), Uops: out}
}
