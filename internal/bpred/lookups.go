package bpred

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/ghist"
)

// Lookups holds TAGE's lookup of every conditional branch of one trace:
// at history position p (the number of conditional branches fetched before
// it), the index and tag of each tagged table, computed from the folds of
// the first p outcomes and path entries exactly as a TAGE reading a live
// ghist.History would. Positions whose lookups agree share one interned
// row. A Lookups is read-only once built, so any number of Tage instances,
// one per simulation of the trace, may share it.
type Lookups struct {
	cfg  TageConfig
	rows []lookupRow // distinct rows
	at   []uint32    // at[p]: the row of history position p
}

// lookupRow is one history position's TAGE lookup: 48 bytes.
type lookupRow struct {
	idx [NTables]uint16
	tag [NTables]uint16
}

// builder steps a private global history through a trace's conditional
// branches, with TAGE's folds registered on it.
type builder struct {
	hist     ghist.History
	idxMask  uint64
	tagMask  [NTables]uint64
	idxFold  [NTables]ghist.Fold
	tagFoldA [NTables]ghist.Fold
	tagFoldB [NTables]ghist.Fold
	pathFold [NTables]ghist.Fold
}

func newBuilder(cfg TageConfig) *builder {
	if cfg.LogTagged > 16 {
		panic(fmt.Sprintf("bpred: %d-bit table indices do not fit a lookup row's 16 bits", cfg.LogTagged))
	}
	b := &builder{idxMask: uint64(1)<<cfg.LogTagged - 1}
	histLen, tagBits := cfg.geometry()
	for k := range NTables {
		L := histLen[k]
		b.tagMask[k] = uint64(1)<<tagBits[k] - 1
		b.idxFold[k] = b.hist.RegisterFold(L, cfg.LogTagged, false)
		b.tagFoldA[k] = b.hist.RegisterFold(L, tagBits[k], false)
		b.tagFoldB[k] = b.hist.RegisterFold(L, tagBits[k]-1, false)
		b.pathFold[k] = b.hist.RegisterFold(min(L, 16), cfg.LogTagged, true)
	}
	return b
}

// row computes every table's index and tag for the branch at pc at the
// current history.
func (b *builder) row(pc uint64) (r lookupRow) {
	hi, ht := hash64(pc), hash64(pc^0x61C88647)
	for k := range NTables {
		r.idx[k] = uint16((hi ^ hi>>uint(9+k) ^ b.hist.Folded(b.idxFold[k]) ^ b.hist.Folded(b.pathFold[k])) & b.idxMask)
		r.tag[k] = uint16((ht ^ b.hist.Folded(b.tagFoldA[k]) ^ b.hist.Folded(b.tagFoldB[k])<<1) & b.tagMask[k])
	}
	return r
}

// BuildLookups computes TAGE's lookups under cfg for a trace whose
// conditional branches, in trace order, are branches: each one's PC and
// outcome. Position p's row is computed before branch p is pushed.
func BuildLookups(cfg TageConfig, branches iter.Seq2[uint64, bool]) *Lookups {
	b := newBuilder(cfg)
	lk := &Lookups{cfg: cfg}
	ids := make(map[lookupRow]uint32)
	for pc, taken := range branches {
		r := b.row(pc)
		id, ok := ids[r]
		if !ok {
			id = uint32(len(lk.rows))
			ids[r] = id
			lk.rows = append(lk.rows, r)
		}
		lk.at = append(lk.at, id)
		b.hist.Push(taken, pc)
	}
	// The lookups live as long as the trace: keep no append slack.
	lk.rows = slices.Clone(lk.rows)
	lk.at = slices.Clone(lk.at)
	return lk
}
