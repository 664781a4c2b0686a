package core

// Hybrid is the paper's simple 2-component symmetric hybrid (Section 7.1.2):
// if only one component is confident its prediction is used; if both are
// confident they must agree, otherwise no prediction is made. Both
// components train on every committed value, and the component the pipeline
// will trust feeds its prediction to the other component's speculative
// last-value state (the cross-feeding rule of Section 7.1.2).
type Hybrid struct {
	a, b Predictor
	name string

	// Reusable per-call scratch Metas. Locals passed to an interface method
	// escape to the heap on every call; predictors are single-threaded by
	// contract, so the hybrid keeps its component payloads here instead.
	ma, mb Meta // Predict scratch
	ta, tb Meta // Train scratch
}

// NewHybrid combines two predictors. By the paper's convention the
// context-based component is first (e.g. VTAGE) and the computational one
// second (e.g. 2D-Stride).
func NewHybrid(a, b Predictor) *Hybrid {
	return &Hybrid{a: a, b: b, name: a.Name() + "+" + b.Name()}
}

// Predict implements Predictor.
func (p *Hybrid) Predict(pc, pos uint64, m *Meta) {
	p.a.Predict(pc, pos, &p.ma)
	p.b.Predict(pc, pos, &p.mb)
	ma, mb := &p.ma, &p.mb
	*m = Meta{C1: ma.C1, C2: mb.C1}

	switch {
	case ma.Conf && mb.Conf:
		if ma.Pred == mb.Pred {
			m.Pred = ma.Pred
			m.Conf = true
		} else {
			m.Pred = ma.Pred // best guess only; not used
		}
	case ma.Conf:
		m.Pred = ma.Pred
		m.Conf = true
	case mb.Conf:
		m.Pred = mb.Pred
		m.Conf = true
	default:
		m.Pred = ma.Pred
	}
}

// FeedSpec implements SpecFeeder by forwarding the speculative occurrence to
// both components — the Section 7.1.2 cross-feeding rule, where a component
// consumes the speculative last occurrence established by the other's
// (pipeline-visible) prediction.
func (p *Hybrid) FeedSpec(pc uint64, v Value, seq uint64) {
	if f, ok := p.a.(SpecFeeder); ok {
		f.FeedSpec(pc, v, seq)
	}
	if f, ok := p.b.(SpecFeeder); ok {
		f.FeedSpec(pc, v, seq)
	}
}

// Train implements Predictor: when an instruction retires, all components
// are updated with the committed value.
func (p *Hybrid) Train(pc uint64, actual Value, m *Meta) {
	p.ta = Meta{Seq: m.Seq, Pred: m.C1.Pred, Conf: m.C1.Conf, C1: m.C1}
	p.tb = Meta{Seq: m.Seq, Pred: m.C2.Pred, Conf: m.C2.Conf, C1: m.C2}
	p.a.Train(pc, actual, &p.ta)
	p.b.Train(pc, actual, &p.tb)
}

// Squash implements Predictor.
func (p *Hybrid) Squash(fromSeq uint64) {
	p.a.Squash(fromSeq)
	p.b.Squash(fromSeq)
}

// Name implements Predictor.
func (p *Hybrid) Name() string { return p.name }

// StorageBits implements Predictor.
func (p *Hybrid) StorageBits() int {
	return p.a.StorageBits() + p.b.StorageBits()
}
