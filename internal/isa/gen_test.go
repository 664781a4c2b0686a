package isa_test

import (
	"bytes"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// TestGenerateDeterministic pins the corpus contract: identical (family,
// seed) pairs produce byte-identical programs, and different seeds diverge.
func TestGenerateDeterministic(t *testing.T) {
	for _, family := range isa.Families() {
		a, err := isa.Generate(family, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := isa.Generate(family, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Encode(), b.Encode()) {
			t.Errorf("%s: same seed produced different programs", family)
		}
		c, err := isa.Generate(family, 43)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.Encode(), c.Encode()) {
			t.Errorf("%s: different seeds produced identical programs", family)
		}
	}
}

// TestGenerateValidAndNonHalting: generated programs validate, never
// collide with a builtin name, and run forever — the trace generator bounds
// execution by µop count, exactly like the builtin kernels.
func TestGenerateValidAndNonHalting(t *testing.T) {
	for _, family := range isa.Families() {
		for seed := uint64(0); seed < 5; seed++ {
			p, err := isa.Generate(family, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("%s/%d: %v", family, seed, err)
			}
			if _, clash := kernels.ByName(p.Name); clash {
				t.Fatalf("%s/%d: generated name %q collides with a builtin", family, seed, p.Name)
			}
			const n = 10_000
			tr := emu.Trace(p, n)
			if len(tr.Uops) != n {
				t.Errorf("%s/%d: trace stopped after %d µops (program halted?)", family, seed, len(tr.Uops))
			}
		}
	}
}

// TestGenerateUnknownFamily lists the valid families in the error.
func TestGenerateUnknownFamily(t *testing.T) {
	_, err := isa.Generate("quantum", 1)
	if err == nil {
		t.Fatal("unknown family accepted")
	}
	for _, f := range isa.Families() {
		if !bytes.Contains([]byte(err.Error()), []byte(f)) {
			t.Errorf("error %q does not list family %s", err, f)
		}
	}
}
