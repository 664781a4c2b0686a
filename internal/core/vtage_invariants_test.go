package core

import "testing"

// White-box invariants of the VTAGE update automaton (Section 6): where
// allocation on a misprediction may land, what a fresh allocation must look
// like, the u-bit decay when every candidate is useful, and the confidence
// hysteresis protecting a confident value from a single misprediction.

// newInvariantVTAGE is a small VTAGE over a trace with no conditional
// branch: every prediction reads the empty history, position 0.
func newInvariantVTAGE(t *testing.T) *VTAGE {
	t.Helper()
	cfg := DefaultVTAGEConfig(FPCBaseline)
	cfg.LogBase = 6
	cfg.LogTagged = 5
	return vtageOver(cfg, nil)
}

// allocatedComps returns the tagged components whose fetch-indexed entry now
// carries the fetch-time tag of m (i.e. could serve this pc next time).
func allocatedComps(p *VTAGE, m *Meta) []int {
	var out []int
	for k := 0; k < NComp; k++ {
		if p.comps[k].entries[m.C1.Idx[k+1]].tag == m.C1.Tag[k] {
			out = append(out, k)
		}
	}
	return out
}

func TestVTAGEMispredictAllocatesLongerHistoryEntry(t *testing.T) {
	p := newInvariantVTAGE(t)
	var m Meta
	p.Predict(100, 0, &m)
	if m.C1.Prov != -1 {
		t.Fatalf("fresh predictor has a tagged provider %d", m.C1.Prov)
	}
	before := len(allocatedComps(p, &m))
	p.Train(100, 5, &m) // base predicts 0 -> mispredict -> allocate

	alloc := allocatedComps(p, &m)
	if len(alloc) != before+1 {
		t.Fatalf("allocations after one mispredict: %d, want %d", len(alloc), before+1)
	}
	// The new entry must start unconfident and not-useful with the actual
	// value, in a component using a longer history than the (base) provider.
	k := alloc[len(alloc)-1]
	e := &p.comps[k].entries[m.C1.Idx[k+1]]
	if e.val != 5 || e.c != 0 || e.u != 0 {
		t.Errorf("fresh allocation = {val %d, c %d, u %d}, want {5, 0, 0}", e.val, e.c, e.u)
	}
}

func TestVTAGEAllUsefulCandidatesDecayInsteadOfAllocate(t *testing.T) {
	p := newInvariantVTAGE(t)
	var m Meta
	p.Predict(200, 0, &m)
	if m.C1.Prov != -1 {
		t.Fatalf("unexpected provider %d", m.C1.Prov)
	}
	// Mark every candidate entry useful and remember its identity.
	type snap struct {
		tag uint16
		val Value
	}
	var snaps [NComp]snap
	for k := 0; k < NComp; k++ {
		e := &p.comps[k].entries[m.C1.Idx[k+1]]
		e.u = 1
		snaps[k] = snap{e.tag, e.val}
	}
	p.Train(200, 9, &m) // mispredict with no allocatable candidate

	for k := 0; k < NComp; k++ {
		e := &p.comps[k].entries[m.C1.Idx[k+1]]
		if e.u != 0 {
			t.Errorf("comp %d: u bit not decayed", k)
		}
		if e.tag != snaps[k].tag || e.val != snaps[k].val {
			t.Errorf("comp %d: entry replaced despite all candidates useful", k)
		}
	}
}

func TestVTAGEConfidenceActsAsValueHysteresis(t *testing.T) {
	p := newInvariantVTAGE(t)
	var m Meta
	// Saturate the base entry on value 0: every prediction is correct (a
	// fresh base already holds 0), so no tagged entry is ever allocated and
	// the base stays the provider throughout.
	for i := 0; i < ConfMax+1; i++ {
		p.Predict(300, 0, &m)
		p.Train(300, 0, &m)
	}
	b := &p.base[m.C1.Idx[0]]
	if b.val != 0 || !Saturated(b.c) {
		t.Fatalf("base entry not saturated on 0: {val %d, c %d}", b.val, b.c)
	}
	// First misprediction: confidence resets, value survives (hysteresis).
	p.Predict(300, 0, &m)
	if m.C1.Prov != -1 {
		t.Fatalf("provider %d, want base", m.C1.Prov)
	}
	p.Train(300, 1000, &m)
	if b.val != 0 || b.c != 0 {
		t.Fatalf("after first mispredict: {val %d, c %d}, want {0, 0}", b.val, b.c)
	}
	// Second misprediction at zero confidence: value is replaced. The first
	// mispredict allocated a tagged entry, so pin the base as provider by
	// reusing the fetch-time Meta (its base prediction is still 0).
	p.Train(300, 1000, &m)
	if b.val != 1000 {
		t.Fatalf("after second mispredict: val %d, want 1000", b.val)
	}
}

func TestVTAGEProviderUpdateSetsUsefulness(t *testing.T) {
	p := newInvariantVTAGE(t)
	var m Meta
	p.Predict(400, 0, &m)
	p.Train(400, 3, &m) // allocate a tagged entry for pc 400

	// Find the allocated component and make it the provider.
	p.Predict(400, 0, &m)
	if m.C1.Prov < 0 {
		t.Skip("allocation landed on a colliding tag; provider did not form")
	}
	k := int(m.C1.Prov)
	e := &p.comps[k].entries[m.C1.Idx[k+1]]
	p.Train(400, m.C1.Pred, &m) // correct prediction by the provider
	if e.u != 1 {
		t.Error("correct provider prediction did not set the u bit")
	}
	p.Predict(400, 0, &m)
	p.Train(400, m.C1.Pred+1, &m) // wrong provider prediction
	if e.u != 0 {
		t.Error("wrong provider prediction did not clear the u bit")
	}
}
