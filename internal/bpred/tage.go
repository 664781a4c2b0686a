// Package bpred implements the front-end branch prediction substrate from
// the paper's Table 2: a TAGE conditional branch predictor with 1+12
// components (~15K entries total), a 2-way 4K-entry BTB, and a 32-entry
// return address stack. The paper's VTAGE reuses the global branch
// history the branch predictor keeps. In this trace-driven model that
// history at a trace's p-th conditional branch depends on p alone
// (internal/ghist), so TAGE's indices and tags there do too: BuildLookups
// computes them once per trace, and every simulation of the trace reads
// them from its Lookups.
package bpred

import "math"

// NTables is the number of tagged TAGE components (Table 2: 1+12).
const NTables = 12

// TageMeta carries fetch-time bookkeeping from Predict to the commit-time
// Train, the same role core.Meta plays for value predictors. Row names the
// lookup row Predict read, so Train finds the same indices and tags there.
type TageMeta struct {
	Pred    bool
	AltPred bool
	Prov    int8 // provider table, -1 = bimodal base
	AltProv int8
	BaseIdx uint32
	Row     uint32
}

// Tage is a TAGE conditional branch direction predictor over one trace's
// Lookups.
type Tage struct {
	at   []uint32    // the Lookups' row of each history position
	rows []lookupRow // and their distinct rows

	base     []uint8 // 2-bit bimodal counters
	baseMask uint64

	tables [NTables][]tageEntry // tagged tables, indexed by the Lookups' rows
	rng    uint32
}

type tageEntry struct {
	tag uint16
	ctr uint8 // 3-bit counter, taken if >= 4
	u   uint8 // 2-bit usefulness
}

// TageConfig sizes the predictor.
type TageConfig struct {
	LogBase   int // log2 bimodal entries (default 13 → 8K)
	LogTagged int // log2 entries per tagged table (default 9 → 512)
	MinHist   int // shortest history (default 4)
	MaxHist   int // longest history (default 640)
}

// DefaultTageConfig approximates the paper's 15K-entry TAGE.
func DefaultTageConfig() TageConfig {
	return TageConfig{LogBase: 13, LogTagged: 9, MinHist: 4, MaxHist: 640}
}

// geometry returns each tagged table's history length, geometric from
// MinHist to MaxHist, and tag width, 9 to 14 bits.
func (cfg TageConfig) geometry() (histLen, tagBits [NTables]int) {
	ratio := math.Pow(float64(cfg.MaxHist)/float64(cfg.MinHist), 1.0/float64(NTables-1))
	hl := float64(cfg.MinHist)
	for k := range NTables {
		histLen[k] = int(hl + 0.5)
		tagBits[k] = min(9+k/2, 15)
		hl *= ratio
	}
	return histLen, tagBits
}

// NewTage builds a TAGE predictor sized by the configuration lk was built
// with, reading its indices and tags from lk.
func NewTage(lk *Lookups) *Tage {
	cfg := lk.cfg
	t := &Tage{
		at:   lk.tab.At,
		rows: lk.tab.Rows,
		base: make([]uint8, 1<<cfg.LogBase),
		rng:  0x2545F491,
	}
	t.baseMask = uint64(len(t.base) - 1)
	for i := range t.base {
		t.base[i] = 2 // weakly taken
	}
	for k := range t.tables {
		t.tables[k] = make([]tageEntry, 1<<cfg.LogTagged)
	}
	return t
}

func hash64(pc uint64) uint64 {
	z := pc + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (t *Tage) nextRand() uint32 {
	s := t.rng
	s ^= s << 13
	s ^= s >> 17
	s ^= s << 5
	t.rng = s
	return s
}

// Predict returns the predicted direction for the conditional branch at pc,
// fetched at history position pos (the number of conditional branches
// before it in the trace), plus the bookkeeping for Train.
func (t *Tage) Predict(pc, pos uint64) (bool, TageMeta) {
	var m TageMeta
	m.Prov, m.AltProv = -1, -1
	m.BaseIdx = uint32(hash64(pc) & t.baseMask)
	m.Row = t.at[pos]
	r := &t.rows[m.Row]
	for k := range NTables {
		if t.tables[k][r.idx[k]].tag == r.tag[k] {
			m.AltProv = m.Prov
			m.Prov = int8(k)
		}
	}
	basePred := t.base[m.BaseIdx] >= 2
	m.AltPred = basePred
	if m.AltProv >= 0 {
		m.AltPred = t.tables[m.AltProv][r.idx[m.AltProv]].ctr >= 4
	}
	if m.Prov >= 0 {
		m.Pred = t.tables[m.Prov][r.idx[m.Prov]].ctr >= 4
	} else {
		m.Pred = basePred
	}
	return m.Pred, m
}

// Train updates the predictor at commit time with the actual outcome.
func (t *Tage) Train(pc uint64, taken bool, m *TageMeta) {
	correct := m.Pred == taken
	r := &t.rows[m.Row]

	if m.Prov >= 0 {
		e := &t.tables[m.Prov][r.idx[m.Prov]]
		if e.tag == r.tag[m.Prov] {
			e.ctr = bump3(e.ctr, taken)
			if m.Pred != m.AltPred {
				if correct {
					if e.u < 3 {
						e.u++
					}
				} else if e.u > 0 {
					e.u--
				}
			}
		}
	} else {
		t.base[m.BaseIdx] = bump2(t.base[m.BaseIdx], taken)
	}

	if correct {
		return
	}
	// Allocate in a longer-history table with a not-useful entry.
	lo := int(m.Prov) + 1
	var cands [NTables]int
	nc := 0
	for k := lo; k < NTables; k++ {
		if t.tables[k][r.idx[k]].u == 0 {
			cands[nc] = k
			nc++
		}
	}
	if nc == 0 {
		for k := lo; k < NTables; k++ {
			e := &t.tables[k][r.idx[k]]
			if e.u > 0 {
				e.u--
			}
		}
		return
	}
	// Prefer shorter histories 2:1 to spread allocations (classic TAGE).
	pick := cands[0]
	if nc > 1 && t.nextRand()&3 == 0 {
		pick = cands[int(t.nextRand())%nc]
	}
	e := &t.tables[pick][r.idx[pick]]
	*e = tageEntry{tag: r.tag[pick], ctr: weakCtr(taken), u: 0}
}

func weakCtr(taken bool) uint8 {
	if taken {
		return 4
	}
	return 3
}

func bump3(c uint8, up bool) uint8 {
	if up {
		if c < 7 {
			return c + 1
		}
		return 7
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

func bump2(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

// Entries reports the total entry count (paper: ~15K).
func (t *Tage) Entries() int {
	n := len(t.base)
	for i := range t.tables {
		n += len(t.tables[i])
	}
	return n
}
