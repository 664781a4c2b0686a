package core

// GDiff is the global-stride predictor of Zhou, Flanagan and Conte [27]: it
// predicts an instruction's result as a stable difference from the result of
// one of the last n dynamic instructions (any PC) — the global value
// history. As the paper notes, gDiff sits "on top" of the machine's
// speculative value stream: at prediction time the global history consists
// mostly of in-flight results, which the pipeline feeds in fetch order (the
// same Section 7.1 idealized speculative window the other computational
// predictors use).
//
// Each table entry remembers, for its static µop, a distance into the
// global history and the stride observed at that distance, with the usual
// 3-bit (FPC-capable) confidence. Training re-derives the diffs against the
// fetch-time snapshot carried in Meta, and re-locks onto the closest
// distance whose diff repeated since the previous occurrence.
type GDiff struct {
	entries []gdiffEntry
	conf    *Confidence
	mask    uint64

	// Global value history ring: results of the most recent occurrences in
	// fetch order, newest last.
	gvh    [gdiffDepth]Value
	gvhSeq [gdiffDepth]uint64
	gvhPos int
}

// gdiffDepth is the global history depth n (the number of preceding dynamic
// results examined for a stable difference).
const gdiffDepth = 8

type gdiffEntry struct {
	tag      uint64
	dist     uint8 // 1..gdiffDepth
	stride   int64
	c        uint8
	lastDiff [gdiffDepth]int64 // diffs observed at the previous occurrence
	ok       bool
}

// NewGDiff builds a gDiff predictor with 2^logEntries entries.
func NewGDiff(logEntries int, vec FPCVector, seed uint32) *GDiff {
	n := 1 << logEntries
	return &GDiff{
		entries: make([]gdiffEntry, n),
		conf:    NewConfidence(vec, seed),
		mask:    uint64(n - 1),
	}
}

func (p *GDiff) slot(pc uint64) (*gdiffEntry, uint64) {
	h := hashPC(pc)
	return &p.entries[h&p.mask], h >> 13
}

// snapshot copies the current global history, newest first, into out.
func (p *GDiff) snapshot(out *[gdiffDepth]Value) {
	for i := 0; i < gdiffDepth; i++ {
		out[i] = p.gvh[(p.gvhPos-1-i+2*gdiffDepth)%gdiffDepth]
	}
}

// Predict implements Predictor. The fetch-time global history snapshot is
// stashed in the Meta (distances 1..n map to GVH slots 0..n-1); CompMeta
// would be too small for 8 values, so Meta carries them in the dedicated GVH
// field, written in place.
func (p *GDiff) Predict(pc, _ uint64, m *Meta) {
	*m = Meta{}
	p.snapshot(&m.GVH)
	e, tag := p.slot(pc)
	if !e.ok || e.tag != tag || e.dist == 0 {
		return
	}
	m.Pred = m.GVH[e.dist-1] + Value(e.stride)
	m.Conf = Saturated(e.c)
	m.C1.Pred = m.Pred
	m.C1.Conf = m.Conf
}

// FeedSpec implements SpecFeeder: every fetched occurrence's value enters
// the speculative global value history (ordered by fetch; squashed entries
// are overwritten by the refetch since the ring only keeps the last n).
func (p *GDiff) FeedSpec(pc uint64, v Value, seq uint64) {
	// Drop ring entries from squashed futures (seq going backwards).
	for cnt := 0; cnt < gdiffDepth; cnt++ {
		prev := (p.gvhPos - 1 + gdiffDepth) % gdiffDepth
		if p.gvhSeq[prev] < seq || p.gvhSeq[prev] == 0 {
			break
		}
		p.gvhPos = prev
		p.gvhSeq[prev] = 0
	}
	p.gvh[p.gvhPos] = v
	p.gvhSeq[p.gvhPos] = seq
	p.gvhPos = (p.gvhPos + 1) % gdiffDepth
}

// Train implements Predictor: diffs against the fetch-time snapshot retrain
// the (distance, stride) lock; correctness of the used prediction drives the
// confidence automaton.
func (p *GDiff) Train(pc uint64, actual Value, m *Meta) {
	e, tag := p.slot(pc)
	if !e.ok || e.tag != tag {
		*e = gdiffEntry{tag: tag, ok: true}
		for k := 0; k < gdiffDepth; k++ {
			e.lastDiff[k] = int64(actual - m.GVH[k])
		}
		return
	}
	correct := e.dist != 0 && m.GVH[e.dist-1]+Value(e.stride) == actual
	if correct {
		e.c = p.conf.Bump(e.c)
	} else {
		e.c = 0
		// Re-lock onto the closest distance whose diff repeated.
		e.dist = 0
		for k := 0; k < gdiffDepth; k++ {
			d := int64(actual - m.GVH[k])
			if d == e.lastDiff[k] {
				e.dist = uint8(k + 1)
				e.stride = d
				break
			}
		}
	}
	for k := 0; k < gdiffDepth; k++ {
		e.lastDiff[k] = int64(actual - m.GVH[k])
	}
}

// Squash implements Predictor. The ring repair happens incrementally in
// FeedSpec when refetched occurrences arrive with smaller sequence numbers.
func (p *GDiff) Squash(fromSeq uint64) {}

// Name implements Predictor.
func (p *GDiff) Name() string { return "gDiff" }

// StorageBits implements Predictor: tag + distance + stride + confidence +
// the per-entry diff history.
func (p *GDiff) StorageBits() int {
	return len(p.entries) * (51 + 3 + 64 + 3 + gdiffDepth*64)
}
