package bpred

import (
	"fmt"
	"iter"

	"repro/internal/ghist"
)

// Lookups holds TAGE's lookup of every conditional branch of one trace:
// at history position p (the number of conditional branches before it),
// the index and tag of each tagged table, computed from the folds of the
// first p outcomes and path entries. Positions whose lookups agree share
// one interned row. A Lookups is read-only once built, so any number of
// Tage instances, one per simulation of the trace, may share it.
type Lookups struct {
	cfg TageConfig
	tab ghist.Table[lookupRow]
}

// lookupRow is one history position's TAGE lookup: 48 bytes.
type lookupRow struct {
	idx [NTables]uint16
	tag [NTables]uint16
}

// BuildLookups computes TAGE's lookups under cfg for a trace whose
// conditional branches, in trace order, are branches: each one's PC and
// outcome. Position p's row is computed before branch p is pushed.
func BuildLookups(cfg TageConfig, branches iter.Seq2[uint64, bool]) *Lookups {
	if cfg.LogTagged > 16 {
		panic(fmt.Sprintf("bpred: %d-bit table indices do not fit a lookup row's 16 bits", cfg.LogTagged))
	}
	idxMask := uint64(1)<<cfg.LogTagged - 1
	histLen, tagBits := cfg.geometry()
	var tagMask [NTables]uint64
	views := make([]ghist.View, 0, 4*NTables)
	for k := range NTables {
		L := histLen[k]
		tagMask[k] = uint64(1)<<tagBits[k] - 1
		views = append(views,
			ghist.View{Length: L, Width: cfg.LogTagged},
			ghist.View{Length: L, Width: tagBits[k]},
			ghist.View{Length: L, Width: tagBits[k] - 1},
			ghist.View{Length: min(L, 16), Width: cfg.LogTagged, Path: true})
	}
	return &Lookups{cfg: cfg, tab: ghist.Build(views, branches, func(pc uint64, folds []uint64) (r lookupRow) {
		hi, ht := hash64(pc), hash64(pc^0x61C88647)
		for k := range NTables {
			f := folds[4*k : 4*k+4]
			r.idx[k] = uint16((hi ^ hi>>uint(9+k) ^ f[0] ^ f[3]) & idxMask)
			r.tag[k] = uint16((ht ^ f[1] ^ f[2]<<1) & tagMask[k])
		}
		return r
	})}
}
