package core

// LVP is the Last Value Predictor of Lipasti et al. [12,13]: a direct-mapped
// table of full-tagged entries holding the last committed value of each
// static µop and a 3-bit confidence counter. Its prediction for an
// occurrence does not depend on the previous in-flight occurrence, so it can
// predict back-to-back occurrences with arbitrary lookup latency (Fig. 1).
type LVP struct {
	entries []lvpEntry
	conf    *Confidence
	mask    uint64
}

type lvpEntry struct {
	tag uint64 // full tag (modelled as 51 bits of PC hash)
	val Value
	c   uint8
	ok  bool // entry has been allocated
}

// lvpTagBits is the full-tag width the paper charges for (Table 1).
const lvpTagBits = 51

// NewLVP returns a last value predictor with 2^logEntries entries using the
// given confidence vector. The paper's configuration is logEntries=13 (8K).
func NewLVP(logEntries int, vec FPCVector, seed uint32) *LVP {
	n := 1 << logEntries
	return &LVP{
		entries: make([]lvpEntry, n),
		conf:    NewConfidence(vec, seed),
		mask:    uint64(n - 1),
	}
}

func (p *LVP) slot(pc uint64) (*lvpEntry, uint64) {
	h := hashPC(pc)
	return &p.entries[h&p.mask], h >> 13 & (1<<lvpTagBits - 1)
}

// Predict implements Predictor.
func (p *LVP) Predict(pc, _ uint64, m *Meta) {
	*m = Meta{}
	e, tag := p.slot(pc)
	if !e.ok || e.tag != tag {
		return
	}
	m.Pred = e.val
	m.Conf = Saturated(e.c)
	m.C1.Pred = e.val
	m.C1.Conf = m.Conf
}

// Train implements Predictor. LVP always records the committed value as the
// new last value; confidence builds on streaks of repeats and resets on a
// change.
func (p *LVP) Train(pc uint64, actual Value, m *Meta) {
	e, tag := p.slot(pc)
	if !e.ok || e.tag != tag {
		*e = lvpEntry{tag: tag, val: actual, ok: true}
		return
	}
	if e.val == actual {
		e.c = p.conf.Bump(e.c)
	} else {
		e.c = 0
		e.val = actual
	}
}

// Squash implements Predictor. LVP holds no speculative state.
func (p *LVP) Squash(fromSeq uint64) {}

// Name implements Predictor.
func (p *LVP) Name() string { return "LVP" }

// StorageBits implements Predictor: tag + 64-bit value + 3-bit confidence
// per entry (Table 1: 120.8 kB at 8K entries).
func (p *LVP) StorageBits() int {
	return len(p.entries) * (lvpTagBits + 64 + 3)
}
