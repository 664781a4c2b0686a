package isa

// Binary program codec: a compact, versioned serialization of Program used
// by tools that ship programs between processes (trace dumpers, corpus
// files) and by the native fuzz targets, which round-trip arbitrary bytes
// through Decode/Encode. The format is little-endian:
//
//	magic   "VPP1"
//	name    u8 length, then bytes
//	entry   u32
//	insts   u32 count, then per inst: op u8, dst u8, src1 u8, src2 u8, imm i64
//	data    u16 segment count, then per segment: addr u64, u32 word count, words u64...
//	regs    u8 count, then per reg: reg u8, value u64
//
// Decode validates structure (magic, counts against hard caps, truncation,
// known opcodes) but not semantics; call Program.Validate for that.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// codecMagic identifies (and versions) the binary program format.
const codecMagic = "VPP1"

// Hard caps keeping Decode safe on adversarial input (fuzzing, corrupt
// files): they bound allocation before any data is trusted.
const (
	maxCodecName  = 64
	maxCodecInsts = 1 << 20
	maxCodecSegs  = 1 << 10
	maxCodecWords = 1 << 16
)

// CheckEncodable reports whether the program fits within the codec caps
// shared with Decode. Encode panics on violation; callers accepting programs
// from untrusted producers (the assembler, program uploads) check first and
// return the error instead.
func CheckEncodable(p *Program) error {
	switch {
	case len(p.Name) > maxCodecName:
		return fmt.Errorf("isa: program name %d bytes exceeds codec cap %d", len(p.Name), maxCodecName)
	case len(p.Insts) > maxCodecInsts:
		return fmt.Errorf("isa: %d instructions exceed codec cap %d", len(p.Insts), maxCodecInsts)
	case len(p.Data) > maxCodecSegs:
		return fmt.Errorf("isa: %d data segments exceed codec cap %d", len(p.Data), maxCodecSegs)
	case len(p.InitRegs) > math.MaxUint8:
		return fmt.Errorf("isa: %d initial registers exceed codec cap %d", len(p.InitRegs), math.MaxUint8)
	}
	for _, seg := range p.Data {
		if len(seg.Words) > maxCodecWords {
			return fmt.Errorf("isa: %d segment words exceed codec cap %d", len(seg.Words), maxCodecWords)
		}
	}
	return nil
}

// Encode serializes the program. The output is deterministic: initial
// registers are emitted in ascending register order. Encode panics if the
// program exceeds the codec caps shared with Decode — truncating silently
// would produce a decodable encoding of a *different* program, and every
// in-repo producer (builder, kernels, fuzz recipes) is far below the caps.
func (p *Program) Encode() []byte {
	if err := CheckEncodable(p); err != nil {
		panic("isa: Encode: " + err.Error())
	}
	name := p.Name
	out := make([]byte, 0, p.encodedLen())
	out = append(out, codecMagic...)
	out = append(out, byte(len(name)))
	out = append(out, name...)
	out = binary.LittleEndian.AppendUint32(out, p.Entry)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p.Insts)))
	for _, in := range p.Insts {
		out = append(out, byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2))
		out = binary.LittleEndian.AppendUint64(out, uint64(in.Imm))
	}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(p.Data)))
	for _, seg := range p.Data {
		out = binary.LittleEndian.AppendUint64(out, seg.Addr)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(seg.Words)))
		for _, w := range seg.Words {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
	}
	regs := make([]Reg, 0, len(p.InitRegs))
	for r := range p.InitRegs {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	out = append(out, byte(len(regs)))
	for _, r := range regs {
		out = append(out, byte(r))
		out = binary.LittleEndian.AppendUint64(out, p.InitRegs[r])
	}
	return out
}

// encodedLen is the exact length of Encode's output, so Encode allocates
// once: builtin kernels carry data segments of up to hundreds of KiB, which
// an append-grown buffer would copy several times over.
func (p *Program) encodedLen() int {
	n := len(codecMagic) + 1 + len(p.Name) + 4 + 4 + 12*len(p.Insts) + 2 + 1 + 9*len(p.InitRegs)
	for _, seg := range p.Data {
		n += 8 + 4 + 8*len(seg.Words)
	}
	return n
}

// codecReader is a bounds-checked little-endian cursor over Decode's input.
type codecReader struct {
	buf []byte
	off int
	err error
}

func (r *codecReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = errors.New("isa: truncated program encoding")
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *codecReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *codecReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *codecReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *codecReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Decode parses a program serialized by Encode. It errors on bad magic,
// truncation, oversized counts, unknown opcodes, duplicate initial-register
// entries, or trailing bytes.
func Decode(data []byte) (*Program, error) {
	r := &codecReader{buf: data}
	if magic := r.take(len(codecMagic)); magic == nil || string(magic) != codecMagic {
		return nil, errors.New("isa: bad program magic")
	}
	nameLen := int(r.u8())
	if nameLen > maxCodecName {
		return nil, fmt.Errorf("isa: program name length %d exceeds %d", nameLen, maxCodecName)
	}
	name := string(r.take(nameLen))
	p := &Program{Name: name, Entry: r.u32()}

	nInsts := int(r.u32())
	if nInsts > maxCodecInsts {
		return nil, fmt.Errorf("isa: %d instructions exceeds %d", nInsts, maxCodecInsts)
	}
	if r.err == nil && nInsts > 0 {
		p.Insts = make([]Inst, 0, min(nInsts, len(r.buf)/12+1))
		for i := 0; i < nInsts && r.err == nil; i++ {
			in := Inst{
				Op:   Op(r.u8()),
				Dst:  Reg(r.u8()),
				Src1: Reg(r.u8()),
				Src2: Reg(r.u8()),
				Imm:  int64(r.u64()),
			}
			if r.err == nil && in.Op >= numOps {
				return nil, fmt.Errorf("isa: unknown opcode %d at pc %d", uint8(in.Op), i)
			}
			p.Insts = append(p.Insts, in)
		}
	}

	nSegs := int(r.u16())
	if nSegs > maxCodecSegs {
		return nil, fmt.Errorf("isa: %d data segments exceeds %d", nSegs, maxCodecSegs)
	}
	for i := 0; i < nSegs && r.err == nil; i++ {
		seg := DataSeg{Addr: r.u64()}
		nWords := int(r.u32())
		if nWords > maxCodecWords {
			return nil, fmt.Errorf("isa: %d segment words exceeds %d", nWords, maxCodecWords)
		}
		if r.err == nil && nWords > 0 {
			seg.Words = make([]uint64, 0, min(nWords, len(r.buf)/8+1))
			for j := 0; j < nWords && r.err == nil; j++ {
				seg.Words = append(seg.Words, r.u64())
			}
		}
		p.Data = append(p.Data, seg)
	}

	nRegs := int(r.u8())
	if nRegs > 0 && r.err == nil {
		p.InitRegs = make(map[Reg]uint64, nRegs)
		for i := 0; i < nRegs && r.err == nil; i++ {
			reg := Reg(r.u8())
			val := r.u64()
			if r.err != nil {
				break
			}
			if _, dup := p.InitRegs[reg]; dup {
				return nil, fmt.Errorf("isa: duplicate initial register %v", reg)
			}
			p.InitRegs[reg] = val
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("isa: %d trailing bytes after program", len(data)-r.off)
	}
	return p, nil
}
