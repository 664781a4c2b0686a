package harness

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/store"
)

// mcfProgram returns a byte-identical copy of the builtin mcf kernel, as an
// uploader reconstructing it from its encoding would hold it.
func mcfProgram(t *testing.T) *isa.Program {
	t.Helper()
	k, ok := kernels.ByName("mcf")
	if !ok {
		t.Fatal("no builtin mcf")
	}
	p, err := isa.Decode(k.Build().Encode())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// impostorProgram returns a program that *claims* to be mcf but runs
// different code — the name-collision attack the content-addressed identity
// exists to defuse.
func impostorProgram() *isa.Program {
	b := isa.NewBuilder("mcf")
	b.InitReg(isa.R1, 1)
	top := b.Here()
	b.Addi(isa.R1, isa.R1, 3)
	b.Xori(isa.R2, isa.R1, 0x5a5a)
	b.Jmp(top)
	return b.Program()
}

// TestRegisterProgramIdentity pins the tentpole's identity rules (satellite:
// identity isolation). A byte-identical upload of builtin mcf resolves to
// the workload "mcf" and therefore memo-hits and store-hits the builtin's
// entries; an impostor named "mcf" gets its own prog: identity and shares
// nothing.
func TestRegisterProgramIdentity(t *testing.T) {
	t.Parallel()
	st, err := store.Open(t.TempDir(), StoreVersion)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testWindows(5_000, 20_000)
	cfg.Store = st
	se := NewSession(cfg)
	ctx := context.Background()

	// Byte-identical upload deduplicates onto the builtin name...
	id, err := se.RegisterProgram(mcfProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if id != "mcf" {
		t.Fatalf("byte-identical mcf registered as %q, want the builtin name", id)
	}
	if se.ProgramCount() != 0 {
		t.Fatalf("builtin-identical program entered the registry (%d entries)", se.ProgramCount())
	}

	// ...so simulating the builtin and then "the upload" is one memo entry.
	spec := Spec{Kernel: "mcf", Predictor: "vtage", Counters: FPC}
	if _, err := se.RunCtx(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := se.RunCtx(ctx, Spec{Kernel: id, Predictor: "vtage", Counters: FPC}); err != nil {
		t.Fatal(err)
	}
	m := se.MemoStats()
	if m.Misses != 1 || m.Hits != 1 {
		t.Fatalf("builtin-identical upload did not share the memo: %+v", m)
	}

	// The impostor gets a distinct content-addressed identity.
	impID, err := se.RegisterProgram(impostorProgram())
	if err != nil {
		t.Fatal(err)
	}
	if !IsProgramRef(impID) {
		t.Fatalf("impostor registered as %q, want a prog: reference", impID)
	}
	if p, ok := se.Program(impID); !ok || p.Name != "mcf" {
		t.Fatalf("registry lookup = %v, %v", p, ok)
	}
	if _, err := se.RunCtx(ctx, Spec{Kernel: impID, Predictor: "vtage", Counters: FPC}); err != nil {
		t.Fatal(err)
	}
	m = se.MemoStats()
	if m.Misses != 2 {
		t.Fatalf("impostor \"mcf\" shared the builtin's entries: %+v", m)
	}

	// Store isolation across processes: a fresh session over the same store
	// dir serves the builtin and the impostor from disk — each from its own
	// entry — and never cross-serves.
	se2 := NewSession(cfg)
	if _, err := se2.RegisterProgram(impostorProgram()); err != nil {
		t.Fatal(err)
	}
	if _, err := se2.RunCtx(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := se2.RunCtx(ctx, Spec{Kernel: impID, Predictor: "vtage", Counters: FPC}); err != nil {
		t.Fatal(err)
	}
	m2 := se2.MemoStats()
	if m2.StoreHits != 2 || m2.Misses != 0 {
		t.Fatalf("warm restart did not serve both identities from the store: %+v", m2)
	}
	if m2.Store.Hits != 2 {
		t.Fatalf("store counters disagree: %+v", m2.Store)
	}
}

// TestRegistryHandsOutCopies edits the program Program returns and checks
// that the registry's own program is unchanged: a later lookup still
// reports the program its id names, and a session's first trace of that id
// runs the registered code, not the edit.
func TestRegistryHandsOutCopies(t *testing.T) {
	t.Parallel()
	se := NewSession(SessionConfig{Measure: 1_000})
	p, err := isa.Generate("mixed", 1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := se.RegisterProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := se.Program(id)
	if !ok {
		t.Fatalf("registered program %s not found", id)
	}
	got.Name = "edited"
	got.Insts[0] = isa.Inst{Op: isa.HALT}
	got.Insts = got.Insts[:1]

	listed, _ := se.Program(id)
	if listed.Name != p.Name || len(listed.Insts) != len(p.Insts) || ProgramID(listed) != id {
		t.Errorf("an edit to a returned program reached the registry: %s lists as %q with %d insts, want %q with %d",
			id, listed.Name, len(listed.Insts), p.Name, len(p.Insts))
	}
	pt, err := se.trace(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	tr := pt.Trace()
	want := emu.Trace(p, 1_000)
	if !slices.Equal(tr.Insts, want.Insts) || !slices.Equal(tr.Uops, want.Uops) {
		t.Errorf("the first trace of %s ran the edited program (%d insts, %d µops), want the registered one (%d, %d)",
			id, len(tr.Insts), len(tr.Uops), len(want.Insts), len(want.Uops))
	}
}

// TestRegisterProgramConcurrent races many registrations and runs of the
// same program: one identity, one simulation, no data races (run with
// -race in CI).
func TestRegisterProgramConcurrent(t *testing.T) {
	t.Parallel()
	se := NewSession(testWindows(2_000, 10_000))
	prog, err := isa.Generate("branchy", 7)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _ := isa.Generate("branchy", 7) // private copy per goroutine
			id, err := se.RegisterProgram(p)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = id
			if _, err := se.RunCtx(context.Background(), Spec{Kernel: id, Predictor: "stride", Counters: FPC}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	want := ProgramID(prog)
	for i, id := range ids {
		if id != want {
			t.Fatalf("goroutine %d registered %q, want %q", i, id, want)
		}
	}
	if se.ProgramCount() != 1 {
		t.Fatalf("registry holds %d entries, want 1", se.ProgramCount())
	}
	m := se.MemoStats()
	if m.Misses != 1 || m.Hits+m.Misses != n {
		t.Fatalf("concurrent identical runs did not coalesce: %+v", m)
	}
}

// TestWorkloadErrors pins the upgraded usage errors (satellite: better
// errors): unknown kernels list the builtin index, unknown program
// references explain registration, malformed references and two-workload
// specs fail validation.
func TestWorkloadErrors(t *testing.T) {
	t.Parallel()
	se := NewSession(testWindows(1_000, 5_000))
	ctx := context.Background()

	_, err := se.RunCtx(ctx, Spec{Kernel: "gcc9", Predictor: "vtage"})
	if err == nil || !strings.Contains(err.Error(), "builtin kernels:") || !strings.Contains(err.Error(), "gzip") {
		t.Errorf("unknown kernel error does not list the index: %v", err)
	}

	ref := strings.Repeat("ab", 32)
	_, err = se.RunCtx(ctx, Spec{Kernel: "prog:" + ref, Predictor: "vtage"})
	if err == nil || !strings.Contains(err.Error(), "no programs registered") {
		t.Errorf("unregistered program error unhelpful: %v", err)
	}

	p, perr := isa.Generate("memory", 3)
	if perr != nil {
		t.Fatal(perr)
	}
	id, perr := se.RegisterProgram(p)
	if perr != nil {
		t.Fatal(perr)
	}
	_, err = se.RunCtx(ctx, Spec{Kernel: "prog:" + ref, Predictor: "vtage"})
	if err == nil || !strings.Contains(err.Error(), id) {
		t.Errorf("unregistered program error does not list registered ids: %v", err)
	}

	if err := (Spec{Kernel: "prog:short", Predictor: "vtage"}).Validate(); err == nil || !strings.Contains(err.Error(), "malformed program reference") {
		t.Errorf("malformed reference accepted: %v", err)
	}
	if err := (Spec{Kernel: "gzip", Program: id, Predictor: "vtage"}).Validate(); err == nil || !strings.Contains(err.Error(), "both kernel") {
		t.Errorf("two-workload spec accepted: %v", err)
	}

	// The Program field alone is valid and canonicalizes onto Kernel.
	c := Spec{Program: id, Predictor: "vtage"}.Canonical()
	if c.Kernel != id || c.Program != "" {
		t.Errorf("Canonical did not fold Program into Kernel: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("canonical program spec invalid: %v", err)
	}
}

// TestRegisterProgramRejects pins the registration error paths.
func TestRegisterProgramRejects(t *testing.T) {
	t.Parallel()
	se := NewSession(testWindows(1_000, 5_000))
	if _, err := se.RegisterProgram(nil); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := se.RegisterProgram(&isa.Program{Name: "empty"}); err == nil {
		t.Error("empty program accepted")
	}
	bad := &isa.Program{Name: "bad", Insts: []isa.Inst{{Op: isa.JMP, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Imm: 99}}}
	if _, err := se.RegisterProgram(bad); err == nil {
		t.Error("out-of-range branch target accepted")
	}
}
