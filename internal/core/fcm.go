package core

// FCM is an nth-order Finite Context Method predictor (Sazeides & Smith
// [18]), the paper's representative local-value-history context predictor.
// The first level (Value History Table) records the last n values produced
// by each static µop, compressed to 16 bits each; the hash of that history
// indexes the second level (Value Prediction Table) holding the prediction.
//
// Following Section 7.1.1: each 64-bit history value is folded (XOR) onto
// itself to 16 bits; the folded values are combined with the most recent
// left-shifted least, XORed with the PC to break conflicts; the VPT keeps a
// 2-bit hysteresis counter to limit replacement, and the 3-bit confidence
// counter lives in the VHT entry.
//
// FCM needs the last n speculative occurrences of each in-flight µop —
// exactly the complex tracking Section 3.2 argues against. As with the
// stride predictor, the tracking is a per-PC occurrence window fed by the
// pipeline in fetch order and repaired precisely on squashes; the paper
// (Section 7.1) likewise idealizes FCM's speculative window, noting its
// performance "is most likely to be overestimated".
type FCM struct {
	order int
	vht   []fcmVHTEntry
	vpt   []fcmVPTEntry
	conf  *Confidence
	mask  uint64
	spec  specTable // in-flight occurrences, each value folded by fold16

	// histBuf is the reusable speculative-history scratch for effHist; the
	// predictor is single-threaded by contract, so one buffer suffices and
	// Predict stays allocation-free.
	histBuf []uint16
}

type fcmVHTEntry struct {
	tag  uint64
	hist []uint16 // most recent first
	c    uint8
	ok   bool
}

type fcmVPTEntry struct {
	val  Value
	hyst uint8 // 2-bit replacement hysteresis
}

// fcmTagBits is the full-tag width charged for the VHT in Table 1.
const fcmTagBits = 51

// NewFCM returns an order-n FCM with 2^logEntries entries in each level.
// The paper's o4-FCM is order 4 with 8K+8K entries.
func NewFCM(order, logEntries int, vec FPCVector, seed uint32) *FCM {
	n := 1 << logEntries
	p := &FCM{
		order:   order,
		vht:     make([]fcmVHTEntry, n),
		vpt:     make([]fcmVPTEntry, n),
		conf:    NewConfidence(vec, seed),
		mask:    uint64(n - 1),
		histBuf: make([]uint16, 0, order),
	}
	// One flat backing array for every VHT history window: entries reset on
	// tag replacement by clearing their fixed slice in place, so the simulate
	// loop never allocates for VHT turnover.
	back := make([]uint16, n*order)
	for i := range p.vht {
		p.vht[i].hist = back[i*order : (i+1)*order : (i+1)*order]
	}
	return p
}

// fold16 compresses a 64-bit value to 16 bits by folding it onto itself.
func fold16(v Value) uint16 {
	return uint16(v ^ v>>16 ^ v>>32 ^ v>>48)
}

func (p *FCM) slot(pc uint64) (*fcmVHTEntry, uint64) {
	h := hashPC(pc)
	return &p.vht[h&p.mask], h >> 13 & (1<<fcmTagBits - 1)
}

// vptIndex hashes an n-deep folded history (most recent first) with the PC:
// the i-th most recent folded value is left-shifted by i before XOR.
func (p *FCM) vptIndex(pc uint64, hist []uint16) uint64 {
	var idx uint64
	for i, h := range hist {
		idx ^= uint64(h) << i
	}
	return (idx ^ hashPC(pc)) & p.mask
}

// effHist builds the speculative history view for pc into the predictor's
// reusable scratch buffer: the newest in-flight folded values first, then
// committed history, order deep. The returned slice aliases histBuf and is
// only valid until the next call.
func (p *FCM) effHist(e *fcmVHTEntry, w *specWindow) []uint16 {
	hist := p.histBuf[:0]
	if w != nil {
		for i := len(w.vals) - 1; i >= 0 && len(hist) < p.order; i-- {
			hist = append(hist, uint16(w.vals[i].val))
		}
	}
	for i := 0; i < len(e.hist) && len(hist) < p.order; i++ {
		hist = append(hist, e.hist[i])
	}
	return hist
}

// Predict implements Predictor.
func (p *FCM) Predict(pc, _ uint64, m *Meta) {
	*m = Meta{}
	e, tag := p.slot(pc)
	if !e.ok || e.tag != tag {
		return
	}
	idx := p.vptIndex(pc, p.effHist(e, p.spec.at(pc)))
	pred := p.vpt[idx].val
	m.Pred = pred
	m.Conf = Saturated(e.c)
	m.C1.Pred = pred
	m.C1.Conf = m.Conf
	m.C1.Idx[0] = uint32(idx)
}

// FeedSpec implements SpecFeeder: records the speculative value of the
// occurrence seq of pc, in fetch order.
func (p *FCM) FeedSpec(pc uint64, v Value, seq uint64) {
	p.spec.feed(pc, seq, Value(fold16(v)))
}

// Train implements Predictor.
func (p *FCM) Train(pc uint64, actual Value, m *Meta) {
	if w := p.spec.at(pc); w != nil {
		w.popThrough(m.Seq)
	}
	e, tag := p.slot(pc)
	if !e.ok || e.tag != tag {
		// Tag replacement reuses the entry's fixed history slice (backed by
		// the flat array built in NewFCM) instead of allocating a fresh one.
		e.tag = tag
		e.c = 0
		e.ok = true
		clear(e.hist)
		p.pushHist(e, actual)
		return
	}
	// The non-speculative prediction drives confidence and the VPT update.
	idx := p.vptIndex(pc, e.hist)
	v := &p.vpt[idx]
	if v.val == actual {
		e.c = p.conf.Bump(e.c)
		if v.hyst < 3 {
			v.hyst++
		}
	} else {
		e.c = 0
		if v.hyst == 0 {
			v.val = actual
		} else {
			v.hyst--
		}
	}
	p.pushHist(e, actual)
}

func (p *FCM) pushHist(e *fcmVHTEntry, actual Value) {
	copy(e.hist[1:], e.hist[:len(e.hist)-1])
	e.hist[0] = fold16(actual)
}

// Squash implements Predictor: in-flight history elements at or after
// fromSeq are discarded; older in-flight elements survive.
func (p *FCM) Squash(fromSeq uint64) { p.spec.squash(fromSeq) }

// Name implements Predictor.
func (p *FCM) Name() string { return "o4-FCM" }

// StorageBits implements Predictor: VHT = tag + n×16-bit history + 3-bit
// confidence per entry; VPT = value + 2-bit hysteresis (Table 1: 120.8 kB +
// 67.6 kB at 8K entries each, order 4).
func (p *FCM) StorageBits() int {
	return len(p.vht)*(fcmTagBits+p.order*16+3) + len(p.vpt)*(64+2)
}
