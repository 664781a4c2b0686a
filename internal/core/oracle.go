package core

// Oracle is the perfect value predictor used for the Figure 3 speedup upper
// bound: it predicts every result correctly. The trace-driven pipeline feeds
// it the architectural result before asking for the prediction.
type Oracle struct {
	next Value
}

// FeedActual implements OracleFeed.
func (p *Oracle) FeedActual(v Value) { p.next = v }

// Predict implements Predictor: always confident, always right.
func (p *Oracle) Predict(pc, _ uint64, m *Meta) {
	*m = Meta{Pred: p.next, Conf: true}
	m.C1.Pred = p.next
	m.C1.Conf = true
}

// Train implements Predictor.
func (p *Oracle) Train(pc uint64, actual Value, m *Meta) {}

// Squash implements Predictor.
func (p *Oracle) Squash(fromSeq uint64) {}

// Name implements Predictor.
func (p *Oracle) Name() string { return "Oracle" }

// StorageBits implements Predictor: an oracle is free (and impossible).
func (p *Oracle) StorageBits() int { return 0 }
