package isa_test

// Native Go fuzz targets for program building, decoding and assembly. CI
// runs each for a short fixed budget (see .github/workflows/ci.yml);
// locally:
//
//	go test -run='^$' -fuzz=FuzzDecode   -fuzztime=30s ./internal/isa
//	go test -run='^$' -fuzz=FuzzBuild    -fuzztime=30s ./internal/isa
//	go test -run='^$' -fuzz=FuzzAssemble -fuzztime=30s ./internal/isa
//
// Regression inputs found by fuzzing land in testdata/fuzz/ and then run as
// ordinary test cases forever.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
)

// seedProgram is a small but representative program touching every encoder
// feature: data segments, initial registers, ALU, memory and control flow.
func seedProgram() *isa.Program {
	b := isa.NewBuilder("codec-seed")
	b.Data(0x1000, 7, 11, 13)
	b.InitReg(isa.R9, 0xDEADBEEF)
	b.Li(isa.R1, 0x1000)
	b.Li(isa.R2, 0)
	loop := b.Here()
	b.Ld(isa.R3, isa.R1, 0)
	b.Add(isa.R2, isa.R2, isa.R3)
	b.St(isa.R1, 8, isa.R2)
	b.Addi(isa.R4, isa.R2, -1)
	skip := b.NewLabel()
	b.Beqz(isa.R4, skip)
	b.Jmp(loop)
	b.Bind(skip)
	b.Halt()
	return b.Program()
}

// FuzzDecode round-trips arbitrary bytes through the binary program codec:
// any input Decode accepts must Validate without panicking, re-Encode, and
// decode back to the identical program; and any program Validate accepts
// must run in the emulator without panicking.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("VPP1"))
	f.Add(seedProgram().Encode())
	tiny := isa.Program{Name: "t", Insts: []isa.Inst{{Op: isa.HALT}}}
	f.Add(tiny.Encode())
	// Two programs the emulator cannot run: an add that reads no register,
	// and an initial value for a register the machine does not have.
	noSrc := isa.Program{Name: "t", Insts: []isa.Inst{
		{Op: isa.ADD, Dst: isa.R1, Src1: isa.NoReg, Src2: isa.R2},
		{Op: isa.JMP, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg},
	}}
	f.Add(noSrc.Encode())
	badInit := isa.Program{Name: "t", Insts: []isa.Inst{{Op: isa.HALT}}, InitRegs: map[isa.Reg]uint64{200: 1}}
	f.Add(badInit.Encode())
	// Names a .name line cannot carry: each disassembles to a different
	// program unless Validate refuses it.
	for _, name := range []string{"a;b", " a", "a ", "a\u00a0", "a\nnop", "a:b"} {
		named := isa.Program{Name: name, Insts: []isa.Inst{{Op: isa.HALT}}}
		f.Add(named.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.Decode(data)
		if err != nil {
			return // structurally rejected input is a correct outcome
		}
		if p.Validate() == nil { // semantic validation must not panic
			emu.Trace(p, 64)
			// Every program Validate accepts is its own text form.
			text := isa.Disassemble(p)
			back, err := isa.Assemble("", text)
			if err != nil {
				t.Fatalf("disassembly of a valid program does not assemble: %v\n%s", err, text)
			}
			if !bytes.Equal(back.Encode(), p.Encode()) {
				t.Fatalf("disassembly assembles to a different program:\n%s", text)
			}
		}
		for _, in := range p.Insts {
			_ = in.String()
		}
		enc := p.Encode()
		if len(enc) != cap(enc) {
			t.Fatalf("Encode sized its buffer for %d bytes and wrote %d", cap(enc), len(enc))
		}
		back, err := isa.Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded program failed: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("decode/encode/decode is not a fixed point:\n%+v\nvs\n%+v", p, back)
		}
	})
}

// FuzzBuild drives the program builder from a byte recipe and checks that
// every built program validates, encodes, round-trips, and survives bounded
// functional execution.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{0x01, 0x22, 0x30, 0x44, 0x05, 0x66})
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00, 0x10, 0x20, 0x30})
	f.Add(bytes.Repeat([]byte{0x07, 0x31}, 40))
	f.Fuzz(func(t *testing.T, recipe []byte) {
		prog := buildFromRecipe(recipe)
		if err := prog.Validate(); err != nil {
			t.Fatalf("builder produced an invalid program: %v", err)
		}
		// Functional execution must terminate (bounded) without panicking.
		tr := emu.Trace(prog, 2_000)
		if len(tr.Uops) == 0 {
			t.Fatal("empty trace from a non-empty program")
		}
		// Codec round trip: compare canonical encodings (DeepEqual would trip
		// over nil-vs-empty map representation differences) and behaviour.
		enc := prog.Encode()
		back, err := isa.Decode(enc)
		if err != nil {
			t.Fatalf("decode of freshly encoded program failed: %v", err)
		}
		if !bytes.Equal(enc, back.Encode()) {
			t.Fatalf("round trip changed the program encoding:\n%+v\nvs\n%+v", prog, back)
		}
		if !reflect.DeepEqual(tr, emu.Trace(back, 2_000)) {
			t.Fatal("round-tripped program behaves differently under the emulator")
		}
	})
}

// buildFromRecipe interprets bytes as builder operations over a small
// register window, always producing a structurally valid, halting program.
func buildFromRecipe(recipe []byte) *isa.Program {
	b := isa.NewBuilder("fuzz-build")
	regs := []isa.Reg{isa.R1, isa.R2, isa.R3, isa.R4, isa.R5}
	b.Li(isa.R10, 0x4000) // memory base
	for i, r := range regs {
		b.Li(r, int64(i*3+1))
	}
	for i := 0; i+1 < len(recipe) && i < 200; i += 2 {
		op, arg := recipe[i], recipe[i+1]
		d := regs[int(op>>4)%len(regs)]
		s1 := regs[int(arg>>4)%len(regs)]
		s2 := regs[int(arg)%len(regs)]
		switch int(op) % 10 {
		case 0:
			b.Add(d, s1, s2)
		case 1:
			b.Sub(d, s1, s2)
		case 2:
			b.Xor(d, s1, s2)
		case 3:
			b.Mul(d, s1, s2)
		case 4:
			b.Div(d, s1, s2)
		case 5:
			b.Addi(d, s1, int64(arg))
		case 6: // bounded load
			b.Andi(d, s1, 0x7F8)
			b.Add(d, d, isa.R10)
			b.Ld(d, d, 0)
		case 7: // bounded store
			b.Andi(isa.R7, s1, 0x7F8)
			b.Add(isa.R7, isa.R7, isa.R10)
			b.St(isa.R7, 0, s2)
		case 8: // short forward branch over one µop
			skip := b.NewLabel()
			b.Andi(isa.R8, s1, 1)
			b.Beqz(isa.R8, skip)
			b.Addi(d, d, 1)
			b.Bind(skip)
		case 9: // FP traffic so both register classes appear
			b.Fmov(isa.F1, isa.F1)
		}
	}
	b.Halt()
	return b.Program()
}

// asmSeeds are small hand-written .vasm fragments covering every directive
// and operand shape of the grammar (asm.go), plus comments, stacked labels
// and the raw escape. Builtin kernels' disassemblies would cover them too,
// but at 16–330 KB each they stall the fuzzer's mutation loop.
var asmSeeds = []string{
	"",
	"halt",
	"# whole-line comment\n; semicolon comment\n\nhalt ; trailing comment\n",
	".name frag\n.entry 1\n.reg r1 4096\n.reg f2 0x10\n.data 4096 1 2 0x3\n.data 8192\nnop\nmovi r1, #42\nhalt\n",
	"add r1, r2, r3\nadd r1, r2, #-5\nmul r4, r5, r6, #7\nfadd f1, f2, f3\nmov r1, r2\nfneg f1, f2\ni2f f3, r4\nf2i r5, f3\nhalt\n",
	"ld r1, [r2]\nld r1, [r2+8]\nfld f1, [r2-8]\nldx r3, [r4+r5]\nst [r2+16], r3\nfst [r2], f1\nhalt\n",
	"loop: beq r1, r2, loop\nbne r1, -, @0\nblt r3, r4, done\nbge r3, -, done\njmp loop\ncall r31, fn\nfn: ret r31\njr r1\ndone: halt\n",
	".entry main\nmain: again: nop\nraw 1 2 3 255 -7\nraw 0 1 0 0 0\njmp @0\nhalt\n",
}

// FuzzAssemble feeds arbitrary text to the assembler. No input may panic,
// and whenever Assemble accepts one, its canonical disassembly must
// assemble again to a byte-identical encoding and disassemble to itself —
// the round trip DESIGN.md §11 promises, from arbitrary source text.
func FuzzAssemble(f *testing.F) {
	for _, src := range asmSeeds {
		// Every non-empty seed must assemble, so together they really
		// cover the grammar.
		if _, err := isa.Assemble("seed", []byte(src)); err != nil && src != "" {
			f.Fatalf("seed does not assemble: %v\n%s", err, src)
		}
		f.Add(src)
	}
	gen, err := isa.Generate("branchy", 1) // one generated program, about 2 KB of text
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(isa.Disassemble(gen)))
	f.Fuzz(func(t *testing.T, src string) {
		p, err := isa.Assemble("fuzz", []byte(src))
		if err != nil {
			return // rejected source is a correct outcome
		}
		text := isa.Disassemble(p)
		q, err := isa.Assemble("fuzz", text)
		if err != nil {
			t.Fatalf("disassembly of an accepted program does not assemble: %v\n%s", err, text)
		}
		if !bytes.Equal(p.Encode(), q.Encode()) {
			t.Fatalf("assemble(disassemble(p)) encodes differently:\n%s", text)
		}
		if again := isa.Disassemble(q); !bytes.Equal(again, text) {
			t.Fatalf("disassembly is not a fixed point:\n%s\nvs\n%s", text, again)
		}
	})
}

// TestCodecRoundTripSeed pins the round trip on the seed program outside the
// fuzzer, so `go test` always covers the codec.
func TestCodecRoundTripSeed(t *testing.T) {
	p := seedProgram()
	enc := p.Encode()
	back, err := isa.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, back.Encode()) {
		t.Fatalf("round trip changed the program encoding:\n%+v\nvs\n%+v", p, back)
	}
	// Decoded programs behave identically under the emulator.
	a := emu.Trace(p, 500)
	c := emu.Trace(back, 500)
	if !reflect.DeepEqual(a, c) {
		t.Fatal("decoded program produced a different trace")
	}
}

// TestDecodeRejectsCorruption pins the decoder's structural validation.
func TestDecodeRejectsCorruption(t *testing.T) {
	enc := seedProgram().Encode()
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("XXXX"), enc[4:]...),
		"truncated":    enc[:len(enc)-3],
		"trailing":     append(append([]byte{}, enc...), 0xAA),
		"unknown op":   corruptFirstOp(enc),
		"oversize cnt": oversizeInstCount(enc),
	}
	for name, data := range cases {
		if _, err := isa.Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

func corruptFirstOp(enc []byte) []byte {
	out := append([]byte{}, enc...)
	// magic(4) + nameLen(1) + name + entry(4) + count(4), then op byte.
	off := 4 + 1 + int(enc[4]) + 4 + 4
	out[off] = 0xFE
	return out
}

func oversizeInstCount(enc []byte) []byte {
	out := append([]byte{}, enc...)
	off := 4 + 1 + int(enc[4]) + 4
	out[off], out[off+1], out[off+2], out[off+3] = 0xFF, 0xFF, 0xFF, 0x7F
	return out
}
