package core

// Stride2D is the 2-delta Stride predictor of Eickemeyer and Vassiliadis
// [6]: each entry holds the last value and two strides. The predicting
// stride s2 is replaced only when the same stride is observed twice in a row
// (s == s1), which filters one-off jumps out of otherwise affine sequences.
//
// The prediction for an occurrence needs the value of the *previous*
// occurrence, which may still be in flight: Section 3.2's "one has to track
// the last (possibly speculative) occurrence of each instruction". The
// tracking is modelled as a per-PC window of in-flight occurrences fed by
// the pipeline (FeedSpec) in fetch order, consumed at commit (Train), and
// truncated precisely on squash (Squash) using occurrence sequence numbers.
type Stride2D struct {
	entries []strideEntry
	conf    *Confidence
	mask    uint64
	spec    specTable
}

type strideEntry struct {
	tag    uint64
	last   Value
	s1, s2 int64
	c      uint8
	ok     bool
}

// specTable holds every static µop's in-flight occurrence window, indexed
// by PC. The PC is a static µop index, so the table is as long as the
// program; it grows on demand when a new PC is fed. An empty window
// predicts exactly like an absent one, so drained windows stay and keep
// their capacity: the steady state allocates nothing.
type specTable struct {
	wins []specWindow
}

// at returns pc's window, or nil if the table does not reach pc yet.
func (t *specTable) at(pc uint64) *specWindow {
	if pc < uint64(len(t.wins)) {
		return &t.wins[pc]
	}
	return nil
}

// grow returns pc's window, extending the table to hold it.
func (t *specTable) grow(pc uint64) *specWindow {
	if pc >= uint64(len(t.wins)) {
		t.wins = append(t.wins, make([]specWindow, pc+1-uint64(len(t.wins)))...)
	}
	return &t.wins[pc]
}

// feed records the speculative value of occurrence seq of pc.
func (t *specTable) feed(pc uint64, seq uint64, v Value) { t.grow(pc).push(seq, v) }

// squash drops every occurrence at or after fromSeq.
func (t *specTable) squash(fromSeq uint64) {
	for i := range t.wins {
		t.wins[i].truncFrom(fromSeq)
	}
}

// specWindow is the in-flight occurrence window for one static µop, oldest
// first. Its size is bounded by the machine's in-flight capacity.
type specWindow struct {
	vals []specVal
}

type specVal struct {
	seq uint64
	val Value
}

func (w *specWindow) newest() (specVal, bool) {
	if len(w.vals) == 0 {
		return specVal{}, false
	}
	return w.vals[len(w.vals)-1], true
}

// push appends an occurrence, first dropping any entries that belong to a
// squashed-and-refetched future (seq greater or equal).
func (w *specWindow) push(seq uint64, v Value) {
	for len(w.vals) > 0 && w.vals[len(w.vals)-1].seq >= seq {
		w.vals = w.vals[:len(w.vals)-1]
	}
	w.vals = append(w.vals, specVal{seq, v})
}

// popThrough removes entries up to and including seq (commit consumption).
// The survivors are compacted to the front of the backing array rather than
// resliced past it, so the window's capacity is reused forever: the per-PC
// steady state allocates nothing.
func (w *specWindow) popThrough(seq uint64) {
	i := 0
	for i < len(w.vals) && w.vals[i].seq <= seq {
		i++
	}
	if i > 0 {
		n := copy(w.vals, w.vals[i:])
		w.vals = w.vals[:n]
	}
}

// truncFrom removes entries with sequence >= seq (squash repair).
func (w *specWindow) truncFrom(seq uint64) {
	for len(w.vals) > 0 && w.vals[len(w.vals)-1].seq >= seq {
		w.vals = w.vals[:len(w.vals)-1]
	}
}

// strideTagBits is the full-tag width charged in Table 1.
const strideTagBits = 51

// NewStride2D returns a 2-delta stride predictor with 2^logEntries entries.
func NewStride2D(logEntries int, vec FPCVector, seed uint32) *Stride2D {
	n := 1 << logEntries
	return &Stride2D{
		entries: make([]strideEntry, n),
		conf:    NewConfidence(vec, seed),
		mask:    uint64(n - 1),
	}
}

func (p *Stride2D) slot(pc uint64) (*strideEntry, uint64) {
	h := hashPC(pc)
	return &p.entries[h&p.mask], h >> 13 & (1<<strideTagBits - 1)
}

// Predict implements Predictor: the last speculative occurrence (the newest
// in-flight value if any, else the committed last value) plus the predicting
// stride.
func (p *Stride2D) Predict(pc, _ uint64, m *Meta) {
	*m = Meta{}
	e, tag := p.slot(pc)
	if !e.ok || e.tag != tag {
		return
	}
	last := e.last
	if w := p.spec.at(pc); w != nil {
		if sv, ok := w.newest(); ok {
			last = sv.val
		}
	}
	pred := last + Value(e.s2)
	m.Pred = pred
	m.Conf = Saturated(e.c)
	m.C1.Pred = pred
	m.C1.Conf = m.Conf
}

// FeedSpec implements SpecFeeder: records the speculative value of the
// occurrence seq of pc, in fetch order.
func (p *Stride2D) FeedSpec(pc uint64, v Value, seq uint64) {
	p.spec.feed(pc, seq, v)
}

// Train implements Predictor.
func (p *Stride2D) Train(pc uint64, actual Value, m *Meta) {
	if w := p.spec.at(pc); w != nil {
		w.popThrough(m.Seq)
	}
	e, tag := p.slot(pc)
	if !e.ok || e.tag != tag {
		*e = strideEntry{tag: tag, last: actual, ok: true}
		return
	}
	// Confidence tracks the non-speculative prediction last+s2.
	if e.last+Value(e.s2) == actual {
		e.c = p.conf.Bump(e.c)
	} else {
		e.c = 0
	}
	s := int64(actual - e.last)
	if s == e.s1 {
		e.s2 = s // 2-delta rule: adopt a stride only when seen twice
	}
	e.s1 = s
	e.last = actual
}

// Squash implements Predictor: speculative occurrences at or after fromSeq
// died with the pipeline flush; older in-flight occurrences survive.
func (p *Stride2D) Squash(fromSeq uint64) { p.spec.squash(fromSeq) }

// Name implements Predictor.
func (p *Stride2D) Name() string { return "2D-Stride" }

// StorageBits implements Predictor: tag + last value + two strides +
// confidence (Table 1: 251.9 kB at 8K entries).
func (p *Stride2D) StorageBits() int {
	return len(p.entries) * (strideTagBits + 64 + 64 + 64 + 3)
}
