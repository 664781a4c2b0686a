package isa

import (
	"math"
	"testing"
	"unsafe"
)

// TestDynInstSize pins the trace record at the 24 bytes execution adds:
// traces are kept for a session's life, so every byte here is held once per
// traced µop.
func TestDynInstSize(t *testing.T) {
	if got := unsafe.Sizeof(DynInst{}); got != 24 {
		t.Errorf("unsafe.Sizeof(DynInst{}) = %d, want 24", got)
	}
}

// TestDynInstPacking sets PC and Taken in both orders over the edges of
// their ranges and reads every field back.
func TestDynInstPacking(t *testing.T) {
	for _, pc := range []uint32{0, 1, 1<<20 - 1, 1<<31 - 1} {
		for _, taken := range []bool{false, true} {
			for _, next := range []uint32{0, pc + 1, 1 << 31, math.MaxUint32} {
				var a, b DynInst
				a.SetPC(pc)
				a.SetTaken(taken)
				b.SetTaken(taken)
				b.SetPC(pc)
				for _, d := range []*DynInst{&a, &b} {
					d.NextPC, d.Result, d.Addr = next, math.MaxUint64, 1<<63
					if d.PC() != pc || d.Taken() != taken || d.NextPC != next ||
						d.Result != math.MaxUint64 || d.Addr != 1<<63 {
						t.Errorf("set pc %d taken %v next %d: read pc %d taken %v next %d result %#x addr %#x",
							pc, taken, next, d.PC(), d.Taken(), d.NextPC, d.Result, d.Addr)
					}
				}
			}
		}
	}
	var d DynInst
	d.SetPC(7)
	d.SetTaken(true)
	d.SetTaken(false)
	if d.PC() != 7 || d.Taken() {
		t.Errorf("clearing Taken: pc %d taken %v, want 7 false", d.PC(), d.Taken())
	}
	defer func() {
		if recover() == nil {
			t.Error("SetPC(1<<31) did not panic")
		}
	}()
	d.SetPC(1 << 31)
}
