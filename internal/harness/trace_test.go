package harness

import (
	"context"
	"testing"
	"unsafe"

	"repro/internal/isa"
)

// TestMemoTraceFootprint pins what the session's trace memo holds per
// workload: a 100k-µop window keeps 100k 24-byte records, 2.4 MB, for the
// session's life, plus the program's instructions and TAGE's lookups (4 B
// per conditional branch and 48 B per distinct row, bpred.Lookups).
func TestMemoTraceFootprint(t *testing.T) {
	se := NewSession(SessionConfig{Warmup: 20_000, Measure: 80_000})
	tr, err := se.trace(context.Background(), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	uops := tr.Trace().Uops
	if got := uintptr(cap(uops)) * unsafe.Sizeof(isa.DynInst{}); got != 2_400_000 {
		t.Errorf("memo trace holds %d bytes of records (%d µops), want 2,400,000", got, cap(uops))
	}
	if len(uops) != 100_000 {
		t.Errorf("memo trace has %d µops, want 100,000", len(uops))
	}
}

// TestMemoTraceOwnsItsCode checks that a memoized trace of a registered
// program keeps its own instructions: an edit to the registry's program
// must not change a trace already made.
func TestMemoTraceOwnsItsCode(t *testing.T) {
	se := NewSession(SessionConfig{Measure: 1_000})
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
	want := tr.Trace().Insts[0]
	se.mu.Lock()
	se.progs[id].Insts[0] = isa.Inst{Op: isa.HALT}
	se.mu.Unlock()
	again, err := se.trace(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Trace().Insts[0]; got != want {
		t.Errorf("memo trace code changed with the registry's program: %v, want %v", got, want)
	}
}
