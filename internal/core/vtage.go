package core

import (
	"fmt"
	"iter"
	"math"

	"repro/internal/ghist"
)

// VTAGE is the Value TAgged GEometric history length predictor (Section 6),
// derived from the ITTAGE indirect branch predictor. A tagless last-value
// base component is backed by NComp tagged components indexed by the µop PC
// hashed with geometrically increasing slices of the global branch history
// and the path history. The matching component with the longest history
// provides the prediction; only the provider is updated at commit.
//
// Because the prediction depends only on the PC and control-flow history —
// never on previous values of the same µop — VTAGE has no speculative
// per-PC value state to track and can predict back-to-back occurrences of an
// instruction even with a multi-cycle lookup (Section 3.2).
//
// The history part of each index and tag depends on the history position
// alone, so VTAGE reads it from per-trace rows (VTAGERows).
type VTAGE struct {
	cfg  VTAGEConfig
	at   []uint32   // the rows' id of each history position
	rows []vtageRow // and their distinct rows

	base     []vtageBase
	baseMask uint64

	comps [NComp]vtageComp
	conf  *Confidence
	rng   *LFSR
}

type vtageBase struct {
	val Value
	c   uint8
}

type vtageComp struct {
	entries []vtageEntry
	mask    uint64 // index mask
	tagMask uint64
}

type vtageEntry struct {
	tag uint16
	val Value
	c   uint8
	u   uint8 // 1-bit usefulness for the replacement policy
}

// VTAGEConfig sizes a VTAGE predictor.
type VTAGEConfig struct {
	LogBase    int // log2 entries in the tagless base (paper: 13 → 8K)
	LogTagged  int // log2 entries per tagged component (paper: 10 → 1K)
	MinHist    int // shortest history length (paper: 2)
	MaxHist    int // longest history length (paper: 64)
	TagBitsMin int // tag width of component 1 (paper: 12+1)
	Vector     FPCVector
	Seed       uint32
}

// DefaultVTAGEConfig is the paper's Table 1 configuration.
func DefaultVTAGEConfig(vec FPCVector) VTAGEConfig {
	return VTAGEConfig{
		LogBase:    13,
		LogTagged:  10,
		MinHist:    2,
		MaxHist:    64,
		TagBitsMin: 13,
		Vector:     vec,
		Seed:       0x5EED,
	}
}

// histLens returns the tagged components' history lengths: a geometric
// series from MinHist to MaxHist (paper: 2, 4, ..., 64).
func (cfg VTAGEConfig) histLens() (hl [NComp]int) {
	ratio := 1.0
	if NComp > 1 {
		ratio = math.Pow(float64(cfg.MaxHist)/float64(cfg.MinHist), 1.0/float64(NComp-1))
	}
	h := float64(cfg.MinHist)
	for k := range hl {
		hl[k] = int(h + 0.5)
		h *= ratio
	}
	return hl
}

// storageBits returns the storage of a VTAGE under cfg: base entries hold
// value+confidence; tagged entries add the partial tag and the u bit.
func (cfg VTAGEConfig) storageBits() (base, tagged int) {
	base = (1 << cfg.LogBase) * (64 + 3)
	for k := range NComp {
		tagged += (1 << cfg.LogTagged) * (cfg.TagBitsMin + k + 64 + 3 + 1)
	}
	return base, tagged
}

// VTAGERows holds the history part of every tagged component's index and
// tag at every history position of one trace, for one history geometry
// (BuildVTAGERows). Every VTAGE of that geometry over the trace may share
// it.
type VTAGERows struct {
	cfg VTAGEConfig // built under; only its history geometry matters
	tab ghist.Table[vtageRow]
}

// vtageRow is one position's history part of VTAGE's lookup: per tagged
// component, the XOR of its index folds and that of its tag folds. Meta's
// tags are 16 bits, so only a tag's low 16 bits reach a prediction.
type vtageRow struct {
	idx [NComp]uint16
	tag [NComp]uint16
}

// BuildVTAGERows builds VTAGE's rows under cfg's history geometry for a
// trace whose conditional branches, in trace order, are branches.
func BuildVTAGERows(cfg VTAGEConfig, branches iter.Seq2[uint64, bool]) *VTAGERows {
	if cfg.LogTagged > 16 {
		panic(fmt.Sprintf("core: %d-bit VTAGE indices do not fit a row's 16 bits", cfg.LogTagged))
	}
	views := make([]ghist.View, 0, 4*NComp)
	for k, L := range cfg.histLens() {
		tagBits := cfg.TagBitsMin + k
		views = append(views,
			ghist.View{Length: L, Width: cfg.LogTagged},
			ghist.View{Length: L, Width: tagBits},
			ghist.View{Length: L, Width: tagBits - 1},
			ghist.View{Length: min(L, 16), Width: cfg.LogTagged, Path: true})
	}
	return &VTAGERows{cfg: cfg, tab: ghist.Build(views, branches, func(_ uint64, folds []uint64) (r vtageRow) {
		for k := range NComp {
			f := folds[4*k : 4*k+4]
			r.idx[k] = uint16(f[0] ^ f[3])
			r.tag[k] = uint16(f[1] ^ f[2]<<1)
		}
		return r
	})}
}

// Fits reports whether rows were built for cfg's history geometry: cfg
// equals their configuration but for the base and confidence fields.
func (rows *VTAGERows) Fits(cfg VTAGEConfig) bool {
	cfg.LogBase, cfg.Vector, cfg.Seed = rows.cfg.LogBase, rows.cfg.Vector, rows.cfg.Seed
	return cfg == rows.cfg
}

// NewVTAGE builds a VTAGE predictor under cfg over rows built for cfg's
// history geometry.
func NewVTAGE(cfg VTAGEConfig, rows *VTAGERows) *VTAGE {
	if !rows.Fits(cfg) {
		panic(fmt.Sprintf("core: VTAGE rows built for %+v do not fit %+v", rows.cfg, cfg))
	}
	p := &VTAGE{
		cfg:  cfg,
		at:   rows.tab.At,
		rows: rows.tab.Rows,
		base: make([]vtageBase, 1<<cfg.LogBase),
		conf: NewConfidence(cfg.Vector, cfg.Seed),
		rng:  NewLFSR(cfg.Seed*2 + 1),
	}
	p.baseMask = uint64(len(p.base) - 1)
	n := 1 << cfg.LogTagged
	for k := range p.comps {
		p.comps[k] = vtageComp{
			entries: make([]vtageEntry, n),
			mask:    uint64(n - 1),
			tagMask: uint64(1)<<(cfg.TagBitsMin+k) - 1,
		}
	}
	return p
}

// Predict implements Predictor. All components are searched in parallel; the
// hitting component with the longest history provides the prediction. An
// index or tag is the PC's hash XOR the history part in the row at pos.
func (p *VTAGE) Predict(pc, pos uint64, m *Meta) {
	*m = Meta{}
	m.C1.Prov = -1
	h, ht := hashPC(pc), hashPC(pc^0x7F4A7C15)
	m.C1.Idx[0] = uint32(h & p.baseMask)
	r := &p.rows[p.at[pos]]
	for k := range NComp {
		c := &p.comps[k]
		idx := uint32((h ^ h>>uint(10+k) ^ uint64(r.idx[k])) & c.mask)
		tag := uint16((ht ^ uint64(r.tag[k])) & c.tagMask)
		m.C1.Idx[k+1] = idx
		m.C1.Tag[k] = tag
		if c.entries[idx].tag == tag {
			m.C1.Prov = int8(k)
		}
	}
	if k := m.C1.Prov; k >= 0 {
		e := &p.comps[k].entries[m.C1.Idx[k+1]]
		m.Pred = e.val
		m.Conf = Saturated(e.c)
	} else {
		b := &p.base[m.C1.Idx[0]]
		m.Pred = b.val
		m.Conf = Saturated(b.c)
	}
	m.C1.Pred = m.Pred
	m.C1.Conf = m.Conf
}

// Train implements Predictor, applying the update automaton of Section 6 at
// commit time using the fetch-time indices and tags captured in m.
func (p *VTAGE) Train(pc uint64, actual Value, m *Meta) {
	cm := &m.C1
	correct := cm.Pred == actual

	if k := cm.Prov; k >= 0 {
		e := &p.comps[k].entries[cm.Idx[k+1]]
		if e.tag == cm.Tag[k] {
			p.updateEntry(&e.val, &e.c, actual, correct)
			if correct {
				e.u = 1
			} else {
				e.u = 0
			}
		}
	} else {
		b := &p.base[cm.Idx[0]]
		p.updateEntry(&b.val, &b.c, actual, correct)
	}
	if correct {
		return
	}

	// Misprediction: allocate in a component using a longer history than the
	// provider. Pick randomly among not-useful candidates; if none, reset
	// the u bit of every candidate entry instead (decay), allocating nothing.
	lo := int(cm.Prov) + 1
	var candidates [NComp]int
	nc := 0
	for k := lo; k < NComp; k++ {
		if p.comps[k].entries[cm.Idx[k+1]].u == 0 {
			candidates[nc] = k
			nc++
		}
	}
	if nc == 0 {
		for k := lo; k < NComp; k++ {
			p.comps[k].entries[cm.Idx[k+1]].u = 0
		}
		return
	}
	k := candidates[int(p.rng.Next())%nc]
	p.comps[k].entries[cm.Idx[k+1]] = vtageEntry{
		tag: cm.Tag[k],
		val: actual,
		c:   0,
		u:   0,
	}
}

// updateEntry applies the shared value/confidence automaton: correct
// predictions raise confidence probabilistically; a misprediction resets a
// confident counter, and replaces the value only once confidence is zero
// (the "c acts as hysteresis" rule of Section 6).
func (p *VTAGE) updateEntry(val *Value, c *uint8, actual Value, correct bool) {
	if correct {
		*c = p.conf.Bump(*c)
		return
	}
	if *c == 0 {
		*val = actual
	} else {
		*c = 0
	}
}

// Squash implements Predictor. VTAGE keeps no speculative per-PC value
// state, and its history is a function of the position Predict is given.
func (p *VTAGE) Squash(fromSeq uint64) {}

// Name implements Predictor.
func (p *VTAGE) Name() string { return "VTAGE" }

// StorageBits implements Predictor: base entries hold value+confidence;
// tagged entries add the partial tag and the u bit (Table 1: 68.6 kB +
// 64.1 kB in the paper's configuration).
func (p *VTAGE) StorageBits() int {
	base, tagged := p.cfg.storageBits()
	return base + tagged
}
