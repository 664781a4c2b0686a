package core

// This file implements the Snapshot/Restore contract (DESIGN.md §9) for
// every predictor. Snapshots are opaque deep copies of all mutable state —
// tables, confidence/allocation LFSRs, and the speculative in-flight
// windows — taken mid-pipeline so a warmed simulation can be resumed
// byte-identically. Restore reinstates the state in place on an identically
// configured instance of the same type: instances are never replaced, so
// shared wiring (the global history VTAGE and PS read) survives.
//
// Shared global history fold values are deliberately not captured here;
// they live in the pipeline-owned ghist.History, which has its own
// Snapshot/Restore invoked by pipeline.Sim.

// PredictorState is an opaque snapshot of one predictor's mutable state.
type PredictorState interface{ predictorState() }

type lvpState struct {
	entries []lvpEntry
	rng     uint32
}

type strideState struct {
	entries []strideEntry
	spec    []specSnap
	rng     uint32
}

type fcmState struct {
	vht  []fcmVHTEntry // hist slices alias the snapshot's own flat backing
	vpt  []fcmVPTEntry
	spec []specSnap
	rng  uint32
}

type vtageState struct {
	base    []vtageBase
	comps   [NComp][]vtageEntry
	confRng uint32
	rng     uint32
}

type gdiffState struct {
	entries []gdiffEntry
	gvh     [gdiffDepth]Value
	gvhSeq  [gdiffDepth]uint64
	gvhPos  int
	rng     uint32
}

type psState struct {
	lasts   []psLast
	strides []psStride
	spec    []specSnap
	rng     uint32
}

type hybridState struct{ a, b PredictorState }

type oracleState struct{ next Value }

func (*lvpState) predictorState()    {}
func (*strideState) predictorState() {}
func (*fcmState) predictorState()    {}
func (*vtageState) predictorState()  {}
func (*gdiffState) predictorState()  {}
func (*psState) predictorState()     {}
func (*hybridState) predictorState() {}
func (*oracleState) predictorState() {}

// specSnap is one non-empty in-flight occurrence window in a snapshot.
type specSnap struct {
	pc   uint64
	vals []specVal
}

// snapshot deep-copies the non-empty in-flight occurrence windows.
func (t *specTable) snapshot() []specSnap {
	var out []specSnap
	for pc := range t.wins {
		if vals := t.wins[pc].vals; len(vals) > 0 {
			out = append(out, specSnap{uint64(pc), append([]specVal(nil), vals...)})
		}
	}
	return out
}

// restore reinstates windows captured by snapshot; every other window is
// emptied. Windows keep their backing capacity.
func (t *specTable) restore(st []specSnap) {
	for i := range t.wins {
		t.wins[i].vals = t.wins[i].vals[:0]
	}
	for _, w := range st {
		win := t.grow(w.pc)
		win.vals = append(win.vals, w.vals...)
	}
}

// Snapshot implements Predictor.
func (p *LVP) Snapshot() PredictorState {
	return &lvpState{entries: append([]lvpEntry(nil), p.entries...), rng: p.conf.rng.s}
}

// Restore implements Predictor.
func (p *LVP) Restore(st PredictorState) {
	s := st.(*lvpState)
	copy(p.entries, s.entries)
	p.conf.rng.s = s.rng
}

// Snapshot implements Predictor.
func (p *Stride2D) Snapshot() PredictorState {
	return &strideState{
		entries: append([]strideEntry(nil), p.entries...),
		spec:    p.spec.snapshot(),
		rng:     p.conf.rng.s,
	}
}

// Restore implements Predictor.
func (p *Stride2D) Restore(st PredictorState) {
	s := st.(*strideState)
	copy(p.entries, s.entries)
	p.spec.restore(s.spec)
	p.conf.rng.s = s.rng
}

// Snapshot implements Predictor.
func (p *FCM) Snapshot() PredictorState {
	st := &fcmState{
		vht:  append([]fcmVHTEntry(nil), p.vht...),
		vpt:  append([]fcmVPTEntry(nil), p.vpt...),
		spec: p.spec.snapshot(),
		rng:  p.conf.rng.s,
	}
	// The live VHT hist slices all alias one flat backing array owned by the
	// predictor; give the snapshot its own.
	back := make([]uint16, len(p.vht)*p.order)
	for i := range st.vht {
		dst := back[i*p.order : (i+1)*p.order : (i+1)*p.order]
		copy(dst, p.vht[i].hist)
		st.vht[i].hist = dst
	}
	return st
}

// Restore implements Predictor.
func (p *FCM) Restore(st PredictorState) {
	s := st.(*fcmState)
	for i := range p.vht {
		e := &p.vht[i]
		src := &s.vht[i]
		e.tag, e.c, e.ok = src.tag, src.c, src.ok
		copy(e.hist, src.hist) // values only: keep the live flat backing
	}
	copy(p.vpt, s.vpt)
	p.spec.restore(s.spec)
	p.conf.rng.s = s.rng
}

// Snapshot implements Predictor. The fold values VTAGE reads live in the
// shared ghist.History and are captured by the pipeline's snapshot.
func (p *VTAGE) Snapshot() PredictorState {
	st := &vtageState{
		base:    append([]vtageBase(nil), p.base...),
		confRng: p.conf.rng.s,
		rng:     p.rng.s,
	}
	for k := range p.comps {
		st.comps[k] = append([]vtageEntry(nil), p.comps[k].entries...)
	}
	return st
}

// Restore implements Predictor.
func (p *VTAGE) Restore(st PredictorState) {
	s := st.(*vtageState)
	copy(p.base, s.base)
	for k := range p.comps {
		copy(p.comps[k].entries, s.comps[k])
	}
	p.conf.rng.s = s.confRng
	p.rng.s = s.rng
}

// Snapshot implements Predictor.
func (p *GDiff) Snapshot() PredictorState {
	return &gdiffState{
		entries: append([]gdiffEntry(nil), p.entries...),
		gvh:     p.gvh,
		gvhSeq:  p.gvhSeq,
		gvhPos:  p.gvhPos,
		rng:     p.conf.rng.s,
	}
}

// Restore implements Predictor.
func (p *GDiff) Restore(st PredictorState) {
	s := st.(*gdiffState)
	copy(p.entries, s.entries)
	p.gvh = s.gvh
	p.gvhSeq = s.gvhSeq
	p.gvhPos = s.gvhPos
	p.conf.rng.s = s.rng
}

// Snapshot implements Predictor. The path-selection fold lives in the
// shared ghist.History and is captured by the pipeline's snapshot.
func (p *PS) Snapshot() PredictorState {
	return &psState{
		lasts:   append([]psLast(nil), p.lasts...),
		strides: append([]psStride(nil), p.strides...),
		spec:    p.spec.snapshot(),
		rng:     p.conf.rng.s,
	}
}

// Restore implements Predictor.
func (p *PS) Restore(st PredictorState) {
	s := st.(*psState)
	copy(p.lasts, s.lasts)
	copy(p.strides, s.strides)
	p.spec.restore(s.spec)
	p.conf.rng.s = s.rng
}

// Snapshot implements Predictor by snapshotting both components. The
// ma/mb/ta/tb scratch Metas are fully overwritten before every use and carry
// no state across calls.
func (p *Hybrid) Snapshot() PredictorState {
	return &hybridState{a: p.a.Snapshot(), b: p.b.Snapshot()}
}

// Restore implements Predictor.
func (p *Hybrid) Restore(st PredictorState) {
	s := st.(*hybridState)
	p.a.Restore(s.a)
	p.b.Restore(s.b)
}

// Snapshot implements Predictor.
func (p *Oracle) Snapshot() PredictorState { return &oracleState{next: p.next} }

// Restore implements Predictor.
func (p *Oracle) Restore(st PredictorState) { p.next = st.(*oracleState).next }
