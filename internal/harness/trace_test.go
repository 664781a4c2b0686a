package harness

import (
	"context"
	"testing"
	"unsafe"

	"repro/internal/isa"
)

// TestMemoTraceFootprint pins what the session's trace memo holds per
// workload: a 100k-µop window keeps 100k 24-byte records, 2.4 MB, for the
// session's life, plus the program's instructions.
func TestMemoTraceFootprint(t *testing.T) {
	se := NewSession(20_000, 80_000)
	tr, err := se.trace(context.Background(), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if got := uintptr(cap(tr.Uops)) * unsafe.Sizeof(isa.DynInst{}); got != 2_400_000 {
		t.Errorf("memo trace holds %d bytes of records (%d µops), want 2,400,000", got, cap(tr.Uops))
	}
	if len(tr.Uops) != 100_000 {
		t.Errorf("memo trace has %d µops, want 100,000", len(tr.Uops))
	}
}

// TestMemoTraceOwnsItsCode checks that a memoized trace of a registered
// program keeps its own instructions: Program hands out the registry's
// copy, and an edit through it must not change a trace already made.
func TestMemoTraceOwnsItsCode(t *testing.T) {
	se := NewSession(0, 1_000)
	p, err := isa.Generate("mixed", 1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := se.RegisterProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr, err := se.trace(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Insts[0]
	reg, _ := se.Program(id)
	reg.Insts[0] = isa.Inst{Op: isa.HALT}
	again, err := se.trace(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if again.Insts[0] != want {
		t.Errorf("memo trace code changed with the registry's program: %v, want %v", again.Insts[0], want)
	}
}
