package isa

// Text assembly: a line-oriented, human-writable rendering of Program that
// round-trips byte-exactly through the binary codec: for every program p
// that Validate accepts (its name included: one line, no ';' or ':', no
// surrounding spaces), Assemble(Disassemble(p)) encodes to the same bytes
// as p (pinned against every builtin kernel and a grid of instructions in
// asm_test.go, and fuzzed by FuzzDecode). Instructions are written in the
// operand forms of opForms (op.go), the one table the assembler, the
// disassembler and Validate read:
//
//	# whole-line comment; ';' comments to end of line anywhere
//	.name gzip            program name (optional; overrides the default)
//	.entry 3              entry PC (optional; instruction index or label)
//	.reg r1 4096          initial register value
//	.data 4096 1 2 3      seed memory: byte address, then 64-bit words
//	loop:                 label (binds the next instruction's index)
//	add r1, r2, r3        integer ALU, registers
//	add r1, r2, #5        integer ALU, immediate (Src2 = NoReg)
//	mul r1, r2, r3, #7    a trailing immediate fills Imm (FP ops too)
//	fadd f1, f2, f3       FP binary ops always take a register Src2
//	movi r1, #42          load immediate
//	mov r1, r2            register move (mov/fmov/fneg/fabs/i2f/f2i)
//	ld r1, [r2+8]         load  (also [r2], [r2-8])
//	ldx r1, [r2+r3]       indexed load
//	st [r2+8], r3         store (address first, like the destination it is)
//	beq r1, r2, loop      branch to label or absolute @12; '-' = compare to 0
//	jmp loop / jr r1 / call r31, fn / ret r31 / nop / halt
//	raw 1 2 3 255 -7      escape hatch: op dst src1 src2 imm, all numeric
//
// '-' names no register: a destination of '-' discards the result, and
// Validate refuses it where the opcode reads a register. Numbers accept Go
// literal syntax (0x.., 0o.., decimal). Disassemble emits each instruction
// in the first form whose text parses back to the same fields, with
// absolute @N branch targets; `raw` appears only for decodable-but-
// unidiomatic field combinations (e.g. a nop with register fields).

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// opByName maps mnemonics to opcodes, built from the String table so the
// two can never drift.
var opByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op := Op(0); op < numOps; op++ {
		m[opName[op]] = op
	}
	return m
}()

// asmError is a parse failure with a 1-based source line.
func asmError(line int, format string, args ...any) error {
	return fmt.Errorf("isa: assemble: line %d: %s", line, fmt.Sprintf(format, args...))
}

// fixup is an unresolved label reference: slot selects which field of the
// program receives the target PC.
type fixup struct {
	line  int
	label string
	pc    int // instruction index to patch (Imm), or -1 for the entry point
}

// Assemble parses text assembly into a validated Program. name is the
// default program name, used when the source has no .name directive (CLI
// loaders pass the file's base name).
func Assemble(name string, src []byte) (*Program, error) {
	p := &Program{Name: name}
	labels := make(map[string]int)
	var fixups []fixup

	for lineNo, rawLine := range strings.Split(string(src), "\n") {
		lineNo++ // 1-based for humans
		line := rawLine
		// ';' comments anywhere; '#' only at line start (inline it would be
		// ambiguous with the '#' immediate prefix).
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") {
			continue
		}

		// Labels: `name:` optionally followed by a directive or instruction.
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if !isLabelName(label) {
				return nil, asmError(lineNo, "bad label %q", label)
			}
			if _, dup := labels[label]; dup {
				return nil, asmError(lineNo, "label %q defined twice", label)
			}
			labels[label] = len(p.Insts)
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}

		if strings.HasPrefix(line, ".") {
			if err := asmDirective(p, &fixups, lineNo, line); err != nil {
				return nil, err
			}
			continue
		}

		in, f, err := asmInst(lineNo, line, len(p.Insts))
		if err != nil {
			return nil, err
		}
		if f != nil {
			fixups = append(fixups, *f)
		}
		p.Insts = append(p.Insts, in)
	}

	for _, f := range fixups {
		t, ok := labels[f.label]
		if !ok {
			return nil, asmError(f.line, "undefined label %q", f.label)
		}
		if f.pc < 0 {
			p.Entry = uint32(t)
		} else {
			p.Insts[f.pc].Imm = int64(t)
		}
	}
	if err := CheckEncodable(p); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("isa: assemble: %w", err)
	}
	return p, nil
}

// asmDirective handles one .name/.entry/.reg/.data line.
func asmDirective(p *Program, fixups *[]fixup, lineNo int, line string) error {
	dir, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch dir {
	case ".name":
		if rest == "" {
			return asmError(lineNo, ".name needs a value")
		}
		p.Name = rest
	case ".entry":
		if rest == "" {
			return asmError(lineNo, ".entry needs an instruction index or label")
		}
		if n, err := strconv.ParseUint(strings.TrimPrefix(rest, "@"), 0, 32); err == nil {
			p.Entry = uint32(n)
		} else if isLabelName(rest) {
			*fixups = append(*fixups, fixup{line: lineNo, label: rest, pc: -1})
		} else {
			return asmError(lineNo, "bad .entry %q", rest)
		}
	case ".reg":
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return asmError(lineNo, ".reg needs a register and a value")
		}
		r, err := parseReg(fields[0])
		if err != nil || r == NoReg {
			return asmError(lineNo, "bad register %q", fields[0])
		}
		v, err := parseU64(fields[1])
		if err != nil {
			return asmError(lineNo, "bad register value %q", fields[1])
		}
		if p.InitRegs == nil {
			p.InitRegs = make(map[Reg]uint64)
		}
		if _, dup := p.InitRegs[r]; dup {
			return asmError(lineNo, "register %s initialized twice", r)
		}
		p.InitRegs[r] = v
	case ".data":
		fields := strings.Fields(rest)
		if len(fields) < 1 {
			return asmError(lineNo, ".data needs an address")
		}
		addr, err := parseU64(fields[0])
		if err != nil {
			return asmError(lineNo, "bad .data address %q", fields[0])
		}
		seg := DataSeg{Addr: addr}
		for _, f := range fields[1:] {
			w, err := parseU64(f)
			if err != nil {
				return asmError(lineNo, "bad .data word %q", f)
			}
			seg.Words = append(seg.Words, w)
		}
		p.Data = append(p.Data, seg)
	default:
		return asmError(lineNo, "unknown directive %q", dir)
	}
	return nil
}

// asmInst parses one instruction line by the first form of its opcode the
// operands match, plus a label fixup when the target is symbolic.
func asmInst(lineNo int, line string, pc int) (Inst, *fixup, error) {
	mnem := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnem, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	var ops []string
	if rest != "" {
		ops = strings.Split(rest, ",")
		for i := range ops {
			ops[i] = strings.TrimSpace(ops[i])
		}
	}
	fail := func(format string, args ...any) (Inst, *fixup, error) {
		return Inst{}, nil, asmError(lineNo, format, args...)
	}

	if mnem == "raw" {
		fields := strings.Fields(rest)
		if len(fields) != 5 {
			return fail("raw takes 5 space-separated fields (op dst src1 src2 imm), got %d", len(fields))
		}
		var nums [4]uint64
		for i := range 4 {
			n, err := strconv.ParseUint(fields[i], 0, 8)
			if err != nil {
				return fail("bad raw field %q", fields[i])
			}
			nums[i] = n
		}
		imm, err := strconv.ParseInt(fields[4], 0, 64)
		if err != nil {
			return fail("bad raw immediate %q", fields[4])
		}
		if Op(nums[0]) >= numOps {
			return fail("unknown opcode %d", nums[0])
		}
		return Inst{Op: Op(nums[0]), Dst: Reg(nums[1]), Src1: Reg(nums[2]), Src2: Reg(nums[3]), Imm: imm}, nil, nil
	}

	op, ok := opByName[strings.ToLower(mnem)]
	if !ok {
		return fail("unknown mnemonic %q", mnem)
	}
	forms := opForms[op]
	var err error
	for _, f := range forms {
		if len(f) != len(ops) {
			continue
		}
		in, label, ferr := parseForm(op, f, ops)
		switch {
		case ferr == nil && label != "":
			return in, &fixup{line: lineNo, label: label, pc: pc}, nil
		case ferr == nil:
			return in, nil, nil
		case err == nil:
			err = ferr
		}
	}
	if err != nil {
		return fail("%v", err)
	}
	if n := len(forms[len(forms)-1]); n != len(forms[0]) {
		return fail("%s takes %d operands (or %d), got %d", mnem, len(forms[0]), n, len(ops))
	}
	return fail("%s takes %d operands, got %d", mnem, len(forms[0]), len(ops))
}

// parseForm parses operand texts written in form f into an instruction of
// op. A symbolic branch target comes back as label, for the caller to
// resolve.
func parseForm(op Op, f form, ops []string) (in Inst, label string, err error) {
	in.Op = op
	if len(f) > 0 {
		in.Dst, in.Src1, in.Src2 = NoReg, NoReg, NoReg
	}
	for i, o := range f {
		tok := ops[i]
		switch o {
		case oDst:
			in.Dst, err = parseReg(tok)
		case oSrc1:
			in.Src1, err = parseReg(tok)
		case oSrc2, oSrc2Opt:
			in.Src2, err = parseReg(tok)
		case oImm:
			in.Imm, err = parseImm(tok)
		case oMem:
			var idx Reg
			if in.Src1, idx, in.Imm, err = parseMem(tok); err == nil && idx != NoReg {
				err = fmt.Errorf("bad address %q (want [reg], [reg+off] or [reg-off])", tok)
			}
		case oMemX:
			var off int64
			if in.Src1, in.Src2, off, err = parseMem(tok); err == nil && (in.Src2 == NoReg || off != 0) {
				err = fmt.Errorf("bad address %q (want [reg+reg])", tok)
			}
		case oTarget:
			switch {
			case strings.HasPrefix(tok, "@"):
				if in.Imm, err = strconv.ParseInt(tok[1:], 0, 64); err != nil {
					err = fmt.Errorf("bad target %q", tok)
				}
			case isLabelName(tok):
				label = tok
			default:
				err = fmt.Errorf("bad target %q", tok)
			}
		}
		if err != nil {
			return Inst{}, "", err
		}
	}
	return in, label, nil
}

// render writes the fields of in that operand o names, as parseForm reads
// them back.
func (o operand) render(in Inst) string {
	switch o {
	case oDst:
		return in.Dst.String()
	case oSrc1:
		return in.Src1.String()
	case oSrc2, oSrc2Opt:
		return in.Src2.String()
	case oImm:
		return fmt.Sprintf("#%d", in.Imm)
	case oMem:
		return renderAddr(in.Src1, in.Imm)
	case oMemX:
		return fmt.Sprintf("[%s+%s]", in.Src1, in.Src2)
	default: // oTarget
		return fmt.Sprintf("@%d", in.Imm)
	}
}

// isLabelName reports whether s is a plausible label: an identifier that
// cannot be confused with a register, immediate, or target literal.
func isLabelName(s string) bool {
	if s == "" || s == "-" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseReg parses r0..r31, f0..f31, or '-' for NoReg.
func parseReg(tok string) (Reg, error) {
	if tok == "-" {
		return NoReg, nil
	}
	if len(tok) >= 2 && (tok[0] == 'r' || tok[0] == 'f' || tok[0] == 'R' || tok[0] == 'F') {
		if n, err := strconv.ParseUint(tok[1:], 10, 8); err == nil && n < 32 {
			if tok[0] == 'f' || tok[0] == 'F' {
				return Reg(n + 32), nil
			}
			return Reg(n), nil
		}
	}
	return NoReg, fmt.Errorf("bad register %q", tok)
}

// parseImm parses a '#'-prefixed signed immediate.
func parseImm(tok string) (int64, error) {
	if !strings.HasPrefix(tok, "#") {
		return 0, fmt.Errorf("immediate %q must start with '#'", tok)
	}
	n, err := strconv.ParseInt(tok[1:], 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", tok)
	}
	return n, nil
}

// parseU64 parses an unsigned 64-bit value, accepting negative literals as
// their two's-complement bit pattern (handy for .reg seeds).
func parseU64(tok string) (uint64, error) {
	if n, err := strconv.ParseUint(tok, 0, 64); err == nil {
		return n, nil
	}
	n, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		return 0, err
	}
	return uint64(n), nil
}

// parseMem parses a bracketed address: [base], [base+off], [base-off], or
// [base+index]. Returns idx == NoReg for the offset forms.
func parseMem(tok string) (base, idx Reg, off int64, err error) {
	if len(tok) < 2 || tok[0] != '[' || tok[len(tok)-1] != ']' {
		return NoReg, NoReg, 0, fmt.Errorf("bad address %q (want [reg], [reg+off], or [reg+reg])", tok)
	}
	// Inside brackets '-' is an offset's sign, never "no register": an
	// address names every register it reads.
	reg := func(s string) (Reg, error) {
		if s == "-" {
			return NoReg, fmt.Errorf("bad address %q ('-' names no register)", tok)
		}
		return parseReg(s)
	}
	inner := strings.TrimSpace(tok[1 : len(tok)-1])
	i := strings.IndexAny(inner, "+-")
	if i <= 0 {
		base, err = reg(inner)
		return base, NoReg, 0, err
	}
	base, err = reg(strings.TrimSpace(inner[:i]))
	if err != nil {
		return NoReg, NoReg, 0, err
	}
	rest := strings.TrimSpace(inner[i:])
	if inner[i] == '+' {
		if r, rerr := reg(strings.TrimSpace(rest[1:])); rerr == nil {
			return base, r, 0, nil
		}
	}
	off, err = strconv.ParseInt(rest, 0, 64)
	if err != nil {
		return NoReg, NoReg, 0, fmt.Errorf("bad address offset %q", rest)
	}
	return base, NoReg, off, nil
}

// Disassemble renders p as text assembly that Assemble parses back to a
// byte-identical encoding. Output order: .name, .entry, .reg (ascending),
// .data (program order), then instructions with absolute @N targets.
func Disassemble(p *Program) []byte {
	var b bytes.Buffer
	if p.Name != "" {
		fmt.Fprintf(&b, ".name %s\n", p.Name)
	}
	if p.Entry != 0 {
		fmt.Fprintf(&b, ".entry %d\n", p.Entry)
	}
	regs := make([]Reg, 0, len(p.InitRegs))
	for r := range p.InitRegs {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	for _, r := range regs {
		fmt.Fprintf(&b, ".reg %s %d\n", r, p.InitRegs[r])
	}
	for _, seg := range p.Data {
		fmt.Fprintf(&b, ".data %d", seg.Addr)
		for _, w := range seg.Words {
			fmt.Fprintf(&b, " %d", w)
		}
		b.WriteByte('\n')
	}
	for _, in := range p.Insts {
		b.WriteString(renderInst(in))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// renderInst emits the canonical text for one instruction: the first form
// of its opcode whose text parses back to the same fields, else the raw
// escape.
func renderInst(in Inst) string {
	if in.Op < numOps {
		for _, f := range opForms[in.Op] {
			ops := make([]string, len(f))
			for i, o := range f {
				ops[i] = o.render(in)
			}
			if back, _, err := parseForm(in.Op, f, ops); err == nil && back == in {
				return strings.TrimSpace(in.Op.String() + " " + strings.Join(ops, ", "))
			}
		}
	}
	return fmt.Sprintf("raw %d %d %d %d %d", uint8(in.Op), uint8(in.Dst), uint8(in.Src1), uint8(in.Src2), in.Imm)
}

// renderAddr formats a base+offset memory operand.
func renderAddr(base Reg, off int64) string {
	switch {
	case off == 0:
		return fmt.Sprintf("[%s]", base)
	case off < 0:
		return fmt.Sprintf("[%s%d]", base, off)
	default:
		return fmt.Sprintf("[%s+%d]", base, off)
	}
}

// Load parses a program from either supported file format, sniffing the
// binary codec's magic: VPP1 bytes decode, anything else assembles as text.
// name is the default program name for text sources without a .name.
func Load(name string, data []byte) (*Program, error) {
	if bytes.HasPrefix(data, []byte(codecMagic)) {
		p, err := Decode(data)
		if err != nil {
			return nil, err
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return p, nil
	}
	return Assemble(name, data)
}
