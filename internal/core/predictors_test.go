package core

import (
	"testing"
	"testing/quick"

	"repro/internal/ghist"
)

// predict adapts the scratch-passing Predict contract for tests that want a
// value result.
func predict(p Predictor, pc uint64) Meta {
	var m Meta
	p.Predict(pc, &m)
	return m
}

// drive feeds a value sequence for one PC through predict/train and returns
// how many of the last `tail` predictions were confident-and-correct.
func drive(p Predictor, pc uint64, seq []Value, tail int) (confCorrect, confWrong int) {
	for i, v := range seq {
		m := predict(p, pc)
		if m.Conf && i >= len(seq)-tail {
			if m.Pred == v {
				confCorrect++
			} else {
				confWrong++
			}
		}
		p.Train(pc, v, &m)
	}
	return
}

func constSeq(v Value, n int) []Value {
	s := make([]Value, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func affineSeq(base Value, stride int64, n int) []Value {
	s := make([]Value, n)
	for i := range s {
		s[i] = base + Value(int64(i)*stride)
	}
	return s
}

func TestLVPPredictsConstants(t *testing.T) {
	p := NewLVP(10, FPCBaseline, 1)
	correct, wrong := drive(p, 100, constSeq(42, 50), 30)
	if wrong != 0 {
		t.Errorf("LVP made %d wrong confident predictions on a constant", wrong)
	}
	if correct < 30 {
		t.Errorf("LVP confident-correct = %d, want 30 (warmed up)", correct)
	}
}

func TestLVPDoesNotPredictStrides(t *testing.T) {
	p := NewLVP(10, FPCBaseline, 1)
	correct, _ := drive(p, 100, affineSeq(0, 8, 200), 100)
	if correct != 0 {
		t.Errorf("LVP confidently predicted %d values of a strided sequence", correct)
	}
}

func TestStridePredictsAffineSequences(t *testing.T) {
	p := NewStride2D(10, FPCBaseline, 1)
	correct, wrong := drive(p, 100, affineSeq(1000, 24, 60), 40)
	if wrong != 0 {
		t.Errorf("stride made %d wrong confident predictions on affine sequence", wrong)
	}
	if correct < 40 {
		t.Errorf("stride confident-correct = %d, want 40", correct)
	}
}

func TestStridePredictsConstants(t *testing.T) {
	// A constant is a stride of 0.
	p := NewStride2D(10, FPCBaseline, 1)
	correct, wrong := drive(p, 5, constSeq(7, 40), 20)
	if wrong != 0 || correct < 20 {
		t.Errorf("stride on constant: correct=%d wrong=%d, want 20/0", correct, wrong)
	}
}

func TestStride2DeltaFiltersOneOffJumps(t *testing.T) {
	// Sequence: stride 8 with a single jump; after the jump the 2-delta rule
	// keeps predicting stride 8 (s2 is only replaced when a stride repeats).
	p := NewStride2D(10, FPCBaseline, 1)
	seq := affineSeq(0, 8, 20)
	seq = append(seq, 10_000)                      // one-off jump
	seq = append(seq, affineSeq(10_008, 8, 20)...) // stride 8 resumes
	var preds []Value
	for _, v := range seq {
		m := predict(p, 1)
		preds = append(preds, m.Pred)
		p.Train(1, v, &m)
	}
	// Two occurrences after the jump, prediction should already be back on
	// the stride-8 track: pred = last + 8.
	at := len(seq) - 15
	if preds[at] != seq[at-1]+8 {
		t.Errorf("after jump: pred=%d, want last+8=%d", preds[at], seq[at-1]+8)
	}
}

func TestStrideSpeculativeBackToBack(t *testing.T) {
	// Two in-flight occurrences: the second prediction must build on the
	// first occurrence's speculative value, delivered through the
	// FeedSpec window as the pipeline does at fetch.
	p := NewStride2D(10, FPCBaseline, 1)
	// Warm the entry: values 0,8,16,24 committed.
	seq := uint64(0)
	for i := 0; i < 4; i++ {
		m := predict(p, 9)
		m.Seq = seq
		p.FeedSpec(9, Value(i*8), seq)
		p.Train(9, Value(i*8), &m)
		seq++
	}
	m1 := predict(p, 9) // should predict 32 (last=24 + 8)
	m1.Seq = seq
	p.FeedSpec(9, m1.Pred, seq)
	seq++
	m2 := predict(p, 9) // speculative: 40, building on the in-flight 32
	m2.Seq = seq
	p.FeedSpec(9, m2.Pred, seq)
	if m1.Pred != 32 {
		t.Errorf("first in-flight prediction = %d, want 32", m1.Pred)
	}
	if m2.Pred != 40 {
		t.Errorf("second in-flight (speculative) prediction = %d, want 40", m2.Pred)
	}
	p.Train(9, 32, &m1)
	p.Train(9, 40, &m2)
}

func TestStrideSquashDropsSpeculativeState(t *testing.T) {
	p := NewStride2D(10, FPCBaseline, 1)
	seq := uint64(0)
	for i := 0; i < 4; i++ {
		m := predict(p, 9)
		m.Seq = seq
		p.FeedSpec(9, Value(i*8), seq)
		p.Train(9, Value(i*8), &m)
		seq++
	}
	// Two in-flight occurrences, then a squash covering both.
	p.FeedSpec(9, 32, seq)
	p.FeedSpec(9, 40, seq+1)
	p.Squash(seq)
	m := predict(p, 9)
	if m.Pred != 32 {
		t.Errorf("post-squash prediction = %d, want 32 (from committed state)", m.Pred)
	}
}

func TestStrideSquashKeepsOlderInflight(t *testing.T) {
	// A squash at seq boundary must preserve older in-flight occurrences.
	p := NewStride2D(10, FPCBaseline, 1)
	seq := uint64(0)
	for i := 0; i < 4; i++ {
		m := predict(p, 9)
		m.Seq = seq
		p.FeedSpec(9, Value(i*8), seq)
		p.Train(9, Value(i*8), &m)
		seq++
	}
	p.FeedSpec(9, 32, seq)   // survives
	p.FeedSpec(9, 40, seq+1) // squashed
	p.Squash(seq + 1)
	m := predict(p, 9)
	if m.Pred != 40 {
		t.Errorf("post-partial-squash prediction = %d, want 40 (32+stride)", m.Pred)
	}
	// Refetch of the squashed occurrence re-feeds the same seq.
	p.FeedSpec(9, 40, seq+1)
	if m := predict(p, 9); m.Pred != 48 {
		t.Errorf("post-refetch prediction = %d, want 48", m.Pred)
	}
}

func TestFCMPredictsPeriodicPattern(t *testing.T) {
	// A repeating pattern of period 3 is exactly what an order-4 FCM learns.
	p := NewFCM(4, 10, FPCBaseline, 1)
	pattern := []Value{5, 17, 99}
	seq := make([]Value, 0, 300)
	for i := 0; i < 300; i++ {
		seq = append(seq, pattern[i%len(pattern)])
	}
	correct, wrong := drive(p, 100, seq, 100)
	if wrong != 0 {
		t.Errorf("FCM made %d wrong confident predictions on periodic pattern", wrong)
	}
	if correct < 90 {
		t.Errorf("FCM confident-correct = %d, want ≥ 90", correct)
	}
}

func TestFCMSquashDropsSpeculativeHistory(t *testing.T) {
	p := NewFCM(4, 10, FPCBaseline, 1)
	pattern := []Value{5, 17, 99, 4}
	for i := 0; i < 200; i++ {
		m := predict(p, 7)
		m.Seq = uint64(i)
		p.Train(7, pattern[i%4], &m)
	}
	before := predict(p, 7)
	p.FeedSpec(7, 1234, 500) // speculative occurrence, then squashed
	p.Squash(500)
	after := predict(p, 7)
	if before.Pred != after.Pred {
		t.Errorf("squash did not restore the non-speculative prediction: %d vs %d", before.Pred, after.Pred)
	}
	p.Squash(0)
}

func TestFCMSpeculativeWindowShiftsContext(t *testing.T) {
	// Feeding an in-flight occurrence must shift the context the next
	// prediction is made with.
	p := NewFCM(4, 10, FPCBaseline, 1)
	pattern := []Value{5, 17, 99}
	for i := 0; i < 300; i++ {
		m := predict(p, 7)
		m.Seq = uint64(i)
		p.FeedSpec(7, pattern[i%3], uint64(i))
		p.Train(7, pattern[i%3], &m)
	}
	// Committed+spec history ends ...5,17,99 -> next is 5.
	if m := predict(p, 7); m.Pred != 5 {
		t.Fatalf("prediction = %d, want 5", m.Pred)
	}
	// One more in-flight occurrence (value 5) shifts the context -> 17.
	p.FeedSpec(7, 5, 300)
	if m := predict(p, 7); m.Pred != 17 {
		t.Fatalf("prediction after spec feed = %d, want 17", m.Pred)
	}
}

func TestOracleAlwaysRight(t *testing.T) {
	var p Oracle
	for i := Value(0); i < 100; i++ {
		p.FeedActual(i * 3)
		m := predict(&p, uint64(i))
		if !m.Conf || m.Pred != i*3 {
			t.Fatalf("oracle wrong: pred=%d conf=%v want %d", m.Pred, m.Conf, i*3)
		}
		p.Train(uint64(i), i*3, &m)
	}
	if p.StorageBits() != 0 {
		t.Error("oracle should cost nothing")
	}
}

func TestHybridSelectionRules(t *testing.T) {
	var h ghist.History
	vt := NewVTAGE(DefaultVTAGEConfig(FPCBaseline), &h)
	st := NewStride2D(13, FPCBaseline, 1)
	hy := NewHybrid(vt, st)

	// Strided values: stride component becomes confident, VTAGE does not
	// (values never repeat), so the hybrid must pass stride through.
	for i := 0; i < 40; i++ {
		m := predict(hy, 50)
		hy.Train(50, Value(i*16), &m)
	}
	m := predict(hy, 50)
	if !m.Conf {
		t.Fatal("hybrid not confident on strided sequence")
	}
	// Committed values were 0,16,...,624, so the stride component predicts
	// 640 and the hybrid must pass it through.
	if m.Pred != 640 {
		t.Errorf("hybrid pred = %d, want 640 (stride component)", m.Pred)
	}
}

func TestHybridDisagreementSuppressesPrediction(t *testing.T) {
	// Two hand-rolled components that are both confident but disagree.
	a, b := &fixedPred{val: 1, conf: true}, &fixedPred{val: 2, conf: true}
	hy := NewHybrid(a, b)
	if m := predict(hy, 1); m.Conf {
		t.Error("hybrid used a prediction despite component disagreement")
	}
	a.val = 2
	if m := predict(hy, 1); !m.Conf || m.Pred != 2 {
		t.Error("hybrid rejected an agreed prediction")
	}
}

func TestHybridTrainsBothComponents(t *testing.T) {
	a, b := &fixedPred{}, &fixedPred{}
	hy := NewHybrid(a, b)
	m := predict(hy, 1)
	hy.Train(1, 5, &m)
	if a.trained != 1 || b.trained != 1 {
		t.Errorf("component train counts = %d,%d, want 1,1", a.trained, b.trained)
	}
	hy.Squash(0)
	if !a.squashed || !b.squashed {
		t.Error("Squash not propagated to both components")
	}
}

// fixedPred is a minimal stub Predictor for hybrid plumbing tests.
type fixedPred struct {
	val      Value
	conf     bool
	trained  int
	squashed bool
}

func (f *fixedPred) Predict(pc uint64, m *Meta) {
	*m = Meta{Pred: f.val, Conf: f.conf}
	m.C1.Pred = f.val
	m.C1.Conf = f.conf
}
func (f *fixedPred) Train(pc uint64, actual Value, m *Meta) { f.trained++ }
func (f *fixedPred) Squash(fromSeq uint64)                  { f.squashed = true }
func (f *fixedPred) Name() string                           { return "fixed" }
func (f *fixedPred) StorageBits() int                       { return 0 }

func TestTable1MatchesPaperSizes(t *testing.T) {
	rows := Table1()
	paper := map[string]float64{
		"LVP": 120.8, "2D-Stride": 251.9, "o4-FCM (VHT)": 120.8,
		"o4-FCM (VPT)": 67.6, "VTAGE (Base)": 68.6, "VTAGE (Tagged)": 64.1,
	}
	for _, r := range rows {
		want, ok := paper[r.Predictor]
		if !ok {
			t.Errorf("unexpected row %q", r.Predictor)
			continue
		}
		// Storage must be within a few percent of the paper's accounting.
		if r.KB < want*0.93 || r.KB > want*1.07 {
			t.Errorf("%s: %.1f kB, paper says %.1f kB", r.Predictor, r.KB, want)
		}
	}
	if FormatTable1() == "" {
		t.Error("empty Table 1 rendering")
	}
}

// Property: Train with a full table never predicts a value the entry has
// never seen for LVP (the tag check prevents aliased garbage becoming a
// confident prediction immediately).
func TestLVPNeverConfidentOnFirstSight(t *testing.T) {
	f := func(pc uint64, v Value) bool {
		p := NewLVP(8, FPCBaseline, 1)
		m := predict(p, pc)
		return !m.Conf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: stride predictor is exact on any affine sequence once warm,
// for arbitrary base and stride.
func TestStrideExactOnAffineProperty(t *testing.T) {
	f := func(base Value, stride int16) bool {
		p := NewStride2D(10, FPCBaseline, 1)
		seq := affineSeq(base, int64(stride), 30)
		_, wrong := drive(p, 3, seq, 25)
		if wrong != 0 {
			return false
		}
		// After warmup the raw prediction (ignoring confidence) is exact.
		m := predict(p, 3)
		return m.Pred == seq[len(seq)-1]+Value(int64(stride))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Hybrid must forward FeedSpec to both components so their speculative
// windows stay coherent.
func TestHybridForwardsFeedSpec(t *testing.T) {
	st := NewStride2D(10, FPCBaseline, 1)
	fc := NewFCM(4, 10, FPCBaseline, 2)
	hy := NewHybrid(fc, st)
	// Warm stride: 0,8,16,24 committed.
	for i := 0; i < 4; i++ {
		m := predict(hy, 9)
		m.Seq = uint64(i)
		hy.FeedSpec(9, Value(i*8), uint64(i))
		hy.Train(9, Value(i*8), &m)
	}
	// An in-flight occurrence fed through the hybrid must advance the
	// stride component's speculative last value.
	hy.FeedSpec(9, 32, 4)
	if m := predict(st, 9); m.Pred != 40 {
		t.Errorf("stride component spec last not forwarded: pred=%d, want 40", m.Pred)
	}
}

// FCM order must change which patterns are capturable: order 1 cannot
// disambiguate a period-3 pattern's repeated element contexts... it can
// (distinct values); but a pattern with repeated values needs deeper order.
func TestFCMOrderMatters(t *testing.T) {
	// Pattern 5,5,9: after value 5 the next is either 5 or 9 — order 1 is
	// ambiguous, order 2 (context [5,5] vs [9,5]) is not.
	pattern := []Value{5, 5, 9}
	run := func(order int) int {
		p := NewFCM(order, 10, FPCBaseline, 1)
		correct := 0
		for i := 0; i < 600; i++ {
			v := pattern[i%3]
			m := predict(p, 4)
			m.Seq = uint64(i)
			if i > 300 && m.Pred == v {
				correct++
			}
			p.Train(4, v, &m)
		}
		return correct
	}
	if o1, o2 := run(1), run(2); o2 <= o1 {
		t.Errorf("order-2 FCM (%d correct) not better than order-1 (%d) on ambiguous pattern", o2, o1)
	}
}
