// Package kernels provides the 19 synthetic benchmark programs standing in
// for the paper's SPEC CPU2000/2006 subset (Table 3). SPEC sources and
// reference inputs are proprietary, so each kernel is written in the
// mini-ISA to reproduce the dominant behaviour the paper's evaluation
// depends on for that benchmark: which value predictor family covers it
// (stride vs last-value vs control-flow context vs none), its branch
// predictability, and its memory behaviour. DESIGN.md §4 documents the
// substitution.
//
// All kernels run forever (the trace generator bounds execution), are
// deterministic, and use disjoint static memory regions.
package kernels

import (
	"slices"

	"repro/internal/isa"
)

// Kernel is one synthetic benchmark.
type Kernel struct {
	Name  string // short name used in tables and CLI flags
	Paper string // the paper's Table 3 benchmark it stands in for
	FP    bool   // floating-point dominated, as in Table 3
	Build func() *isa.Program
}

// all is the kernel table in the paper's Table 3 order, built once. It is
// never handed out: All returns a copy.
var all = []Kernel{
	{"gzip", "164.gzip (INT)", false, buildGzip},
	{"wupwise", "168.wupwise (FP)", true, buildWupwise},
	{"applu", "173.applu (FP)", true, buildApplu},
	{"vpr", "175.vpr (INT)", false, buildVpr},
	{"art", "179.art (FP)", true, buildArt},
	{"crafty", "186.crafty (INT)", false, buildCrafty},
	{"parser", "197.parser (INT)", false, buildParser},
	{"vortex", "255.vortex (INT)", false, buildVortex},
	{"bzip2", "401.bzip2 (INT)", false, buildBzip2},
	{"gcc", "403.gcc (INT)", false, buildGcc},
	{"gamess", "416.gamess (FP)", true, buildGamess},
	{"mcf", "429.mcf (INT)", false, buildMcf},
	{"milc", "433.milc (FP)", true, buildMilc},
	{"namd", "444.namd (FP)", true, buildNamd},
	{"gobmk", "445.gobmk (INT)", false, buildGobmk},
	{"hmmer", "456.hmmer (INT)", false, buildHmmer},
	{"sjeng", "458.sjeng (INT)", false, buildSjeng},
	{"h264ref", "464.h264ref (INT)", false, buildH264},
	{"lbm", "470.lbm (FP)", true, buildLbm},
}

// All returns the 19 kernels in the paper's Table 3 order.
func All() []Kernel { return slices.Clone(all) }

// ByName returns the kernel called name.
func ByName(name string) (Kernel, bool) {
	for _, k := range all {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// Names lists all kernel names in order.
func Names() []string {
	out := make([]string, len(all))
	for i, k := range all {
		out[i] = k.Name
	}
	return out
}

// lcg advances a linear congruential generator held in r (Knuth's MMIX
// constants); the resulting values are deliberately value-unpredictable.
func lcg(b *isa.Builder, r isa.Reg) {
	b.Muli(r, r, 6364136223846793005)
	b.Addi(r, r, 1442695040888963407)
}

// seedWords fills [addr, addr+n*8) with a deterministic pseudo-random
// pattern at build time.
func seedWords(b *isa.Builder, addr uint64, n int, seed uint64) {
	words := make([]uint64, n)
	x := seed
	for i := range words {
		x = x*6364136223846793005 + 1442695040888963407
		words[i] = x
	}
	b.Data(addr, words...)
}

// seedSmallWords fills memory with small positive values (x mod bound).
func seedSmallWords(b *isa.Builder, addr uint64, n int, seed, bound uint64) {
	words := make([]uint64, n)
	x := seed
	for i := range words {
		x = x*6364136223846793005 + 1442695040888963407
		words[i] = x % bound
	}
	b.Data(addr, words...)
}

// seedCycle seeds a pointer-chase cycle at addr: entry i holds the index of
// the next element, forming one cycle through all n slots (n power of two).
func seedCycle(b *isa.Builder, addr uint64, n int, stride int) {
	words := make([]uint64, n)
	for i := range words {
		words[i] = uint64((i + stride) & (n - 1))
	}
	b.Data(addr, words...)
}
