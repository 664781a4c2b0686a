package core

import (
	"iter"

	"repro/internal/ghist"
)

// PS is the Per-Path Stride predictor of Nakra, Gupta and Soffa [15]: a
// stride predictor whose stride is selected by a few bits of the global
// branch history, so the same instruction can carry different strides on
// different control-flow paths. The paper included it in its initial study
// (footnote 4) and found it on par with 2D-Stride; it is provided here as
// the historical bridge between computational predictors and VTAGE's use of
// branch history.
type PS struct {
	lasts                []psLast   // per-PC last value (like LVP's table)
	strides              []psStride // per (PC, path) stride + confidence
	conf                 *Confidence
	lastMask, strideMask uint64
	at                   []uint32 // the rows' id of each history position
	rows                 []uint8  // and their distinct history bits
	spec                 specTable
}

type psLast struct {
	tag  uint64
	last Value
	ok   bool
}

type psStride struct {
	tag    uint16
	stride int64
	c      uint8
}

// psHistBits is how many branch-history bits select the stride ("PS only
// uses a few bits of the global branch history" — Section 6).
const psHistBits = 4

// PSRows holds the history bits PS selects a stride by at every history
// position of one trace (BuildPSRows). Every PS over the trace may share it.
type PSRows struct{ tab ghist.Table[uint8] }

// BuildPSRows builds PS's rows for a trace whose conditional branches, in
// trace order, are branches.
func BuildPSRows(branches iter.Seq2[uint64, bool]) *PSRows {
	views := []ghist.View{{Length: psHistBits, Width: psHistBits}}
	return &PSRows{tab: ghist.Build(views, branches, func(_ uint64, folds []uint64) uint8 {
		return uint8(folds[0])
	})}
}

// NewPS builds a per-path stride predictor with 2^logLast last-value entries
// and 2^logStride path-qualified stride entries over rows.
func NewPS(logLast, logStride int, vec FPCVector, seed uint32, rows *PSRows) *PS {
	return &PS{
		lasts:      make([]psLast, 1<<logLast),
		strides:    make([]psStride, 1<<logStride),
		conf:       NewConfidence(vec, seed),
		lastMask:   uint64(1)<<logLast - 1,
		strideMask: uint64(1)<<logStride - 1,
		at:         rows.tab.At,
		rows:       rows.tab.Rows,
	}
}

func (p *PS) lastSlot(pc uint64) (*psLast, uint64) {
	h := hashPC(pc)
	return &p.lasts[h&p.lastMask], h >> 13
}

func (p *PS) strideSlot(pc uint64, hist uint64) (*psStride, uint16) {
	h := hashPC(pc) ^ hist*0x9E3779B9
	return &p.strides[h&p.strideMask], uint16(h >> 24 & 0x3FF)
}

// Predict implements Predictor: last speculative occurrence plus the stride
// recorded for the path at history position pos.
func (p *PS) Predict(pc, pos uint64, m *Meta) {
	*m = Meta{}
	le, tag := p.lastSlot(pc)
	if !le.ok || le.tag != tag {
		return
	}
	last := le.last
	if w := p.spec.at(pc); w != nil {
		if sv, ok := w.newest(); ok {
			last = sv.val
		}
	}
	hist := uint64(p.rows[p.at[pos]])
	se, stag := p.strideSlot(pc, hist)
	if se.tag == stag {
		m.Pred = last + Value(se.stride)
		m.Conf = Saturated(se.c)
	} else {
		m.Pred = last
	}
	m.C1.Pred = m.Pred
	m.C1.Conf = m.Conf
	m.C1.Idx[0] = uint32(hist) // fetch-time path for Train
}

// FeedSpec implements SpecFeeder.
func (p *PS) FeedSpec(pc uint64, v Value, seq uint64) {
	p.spec.feed(pc, seq, v)
}

// Train implements Predictor.
func (p *PS) Train(pc uint64, actual Value, m *Meta) {
	if w := p.spec.at(pc); w != nil {
		w.popThrough(m.Seq)
	}
	le, tag := p.lastSlot(pc)
	if !le.ok || le.tag != tag {
		*le = psLast{tag: tag, last: actual, ok: true}
		return
	}
	se, stag := p.strideSlot(pc, uint64(m.C1.Idx[0]))
	s := int64(actual - le.last)
	if se.tag != stag {
		*se = psStride{tag: stag, stride: s}
	} else if le.last+Value(se.stride) == actual {
		se.c = p.conf.Bump(se.c)
	} else {
		se.c = 0
		se.stride = s
	}
	le.last = actual
}

// Squash implements Predictor.
func (p *PS) Squash(fromSeq uint64) { p.spec.squash(fromSeq) }

// Name implements Predictor.
func (p *PS) Name() string { return "PS" }

// StorageBits implements Predictor.
func (p *PS) StorageBits() int {
	return len(p.lasts)*(51+64) + len(p.strides)*(10+64+3)
}
