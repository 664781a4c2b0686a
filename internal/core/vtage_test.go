package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVTAGEHistoryLengthsAreGeometric(t *testing.T) {
	hl := DefaultVTAGEConfig(FPCBaseline).histLens()
	want := []int{2, 4, 8, 16, 32, 64}
	for k := 0; k < NComp; k++ {
		if got := hl[k]; got != want[k] {
			t.Errorf("component %d history length = %d, want %d", k, got, want[k])
		}
	}
}

func TestVTAGEBaseActsAsLVP(t *testing.T) {
	// With no branch history activity, VTAGE's base component learns
	// constants exactly like LVP.
	p := vtageOver(DefaultVTAGEConfig(FPCBaseline), nil)
	correct, wrong := drive(p, 42, constSeq(77, 40), 25)
	if wrong != 0 {
		t.Errorf("VTAGE wrong confident predictions on constant: %d", wrong)
	}
	if correct < 25 {
		t.Errorf("VTAGE confident-correct = %d, want 25", correct)
	}
}

// correlatedStream is n iterations of one branch whose direction
// alternates every 3 iterations.
func correlatedStream(n int) []branch {
	stream := make([]branch, n)
	for i := range stream {
		stream[i] = branch{0x40, (i/3)%2 == 0}
	}
	return stream
}

// branchCorrelatedRun simulates a µop whose value is determined by the
// preceding branch outcome — the pattern VTAGE is built for and that LVP and
// Stride cannot capture. The µop follows each branch of stream, so
// iteration i predicts at history position i+1.
func branchCorrelatedRun(p Predictor, stream []branch, tail int) (confCorrect, confWrong int) {
	const pc = 7
	vals := [2]Value{111, 999}
	n := len(stream)
	for i, b := range stream {
		v := vals[0]
		if b.taken {
			v = vals[1]
		}
		m := predictAt(p, pc, uint64(i+1))
		if m.Conf && i >= n-tail {
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

func TestVTAGECapturesControlFlowCorrelatedValues(t *testing.T) {
	stream := correlatedStream(3000)
	p := vtageOver(DefaultVTAGEConfig(FPCBaseline), stream)
	correct, wrong := branchCorrelatedRun(p, stream, 500)
	total := correct + wrong
	if total == 0 {
		t.Fatal("VTAGE never became confident on branch-correlated values")
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Errorf("VTAGE accuracy on branch-correlated values = %.3f, want ≥ 0.95", acc)
	}
	if correct < 250 {
		t.Errorf("VTAGE coverage too low: %d confident-correct of last 500", correct)
	}
}

func TestLVPCannotCaptureControlFlowCorrelatedValues(t *testing.T) {
	p := NewLVP(13, FPCBaseline, 1)
	correct, wrong := branchCorrelatedRun(p, correlatedStream(3000), 500)
	// The value changes every 3 occurrences; a 3-bit confidence counter
	// needs 7 repeats, so LVP should essentially never be confident.
	if correct+wrong > 50 {
		t.Errorf("LVP was confident %d times on branch-correlated values", correct+wrong)
	}
}

func TestVTAGEAllocatesOnMisprediction(t *testing.T) {
	// Predict after 64 branches, so tagged components have context to hash.
	stream := make([]branch, 64)
	for i := range stream {
		stream[i] = branch{uint64(i), i%2 == 0}
	}
	p := vtageOver(DefaultVTAGEConfig(FPCBaseline), stream)
	m := predictAt(p, 5, 64)
	if m.C1.Prov != -1 {
		t.Fatalf("fresh predictor has provider %d, want base (-1)", m.C1.Prov)
	}
	p.Train(5, 123, &m) // base learns 123... and a mispredict (pred was 0)
	m2 := predictAt(p, 5, 64)
	// After the mispredicting first occurrence an upper entry was allocated.
	if m2.C1.Prov < 0 {
		t.Error("no tagged component allocated after misprediction")
	}
	if m2.Pred != 123 {
		t.Errorf("allocated entry predicts %d, want 123", m2.Pred)
	}
}

func TestVTAGEUsefulBitProtectsEntries(t *testing.T) {
	stream := make([]branch, 10)
	for i := range stream {
		stream[i] = branch{uint64(i), true}
	}
	p := vtageOver(DefaultVTAGEConfig(FPCBaseline), stream)
	// Train one PC until its provider entry is useful (correct prediction).
	var m Meta
	for i := 0; i < 5; i++ {
		m = predictAt(p, 11, 10)
		p.Train(11, 55, &m)
	}
	m = predictAt(p, 11, 10)
	if m.Pred != 55 {
		t.Fatalf("prediction = %d, want 55", m.Pred)
	}
	prov := m.C1.Prov
	if prov >= 0 {
		e := p.comps[prov].entries[m.C1.Idx[prov+1]]
		if e.u != 1 {
			t.Error("provider entry not marked useful after correct prediction")
		}
	}
}

func TestVTAGEConfidenceGatesUse(t *testing.T) {
	p := vtageOver(DefaultVTAGEConfig(FPCCommit), nil)
	// With FPCCommit (expected streak 129) a short constant run must NOT
	// produce confident predictions.
	correct, wrong := drive(p, 3, constSeq(9, 30), 30)
	if correct+wrong != 0 {
		t.Errorf("FPC-commit VTAGE confident after only 30 occurrences (%d uses)", correct+wrong)
	}
}

func TestVTAGEStorageMatchesPaper(t *testing.T) {
	p := vtageOver(DefaultVTAGEConfig(FPCBaseline), nil)
	gotKB := float64(p.StorageBits()) / 8 / 1000
	// Paper: 68.6 + 64.1 = 132.7 kB.
	if gotKB < 125 || gotKB > 140 {
		t.Errorf("VTAGE storage = %.1f kB, want ≈ 132.7 kB", gotKB)
	}
}

// randomStream is n branches of random PCs and outcomes.
func randomStream(seed int64, n int) []branch {
	rng := rand.New(rand.NewSource(seed))
	stream := make([]branch, n)
	for i := range stream {
		stream[i] = branch{uint64(rng.Intn(1 << 16)), rng.Intn(2) == 0}
	}
	return stream
}

// Property: Predict never panics and the provider index is always in range
// for arbitrary PCs and history positions: a prediction without a step
// forward repeats a position, as a re-fetch after a squash does.
func TestVTAGEPredictRobustProperty(t *testing.T) {
	const maxCount = 2000
	p := vtageOver(DefaultVTAGEConfig(FPCBaseline), randomStream(1, maxCount))
	pos := uint64(0)
	f := func(pc uint64, step bool) bool {
		m := predictAt(p, pc, pos)
		if step {
			pos++
		}
		if m.C1.Prov < -1 || m.C1.Prov >= NComp {
			return false
		}
		p.Train(pc, pc*3, &m)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Error(err)
	}
}

// Property: a position's indices and tags do not depend on which positions
// were visited before it. The pipeline relies on this for squash repair:
// after a squash it re-fetches at an earlier position, and may visit
// positions in any order across squashes.
func TestVTAGEIndicesStableUnderRollback(t *testing.T) {
	stream := randomStream(2, 140)
	cfg := DefaultVTAGEConfig(FPCBaseline)
	rows := BuildVTAGERows(cfg, branchesOf(stream))
	fresh := predictAt(NewVTAGE(cfg, rows), 77, 100)

	rng := rand.New(rand.NewSource(3))
	p := NewVTAGE(cfg, rows)
	for i := 0; i < 500; i++ {
		pc, pos := uint64(rng.Intn(128)), uint64(rng.Intn(len(stream)+1))
		m := predictAt(p, pc, pos)
		p.Train(pc, Value(i), &m)
	}
	m := predictAt(p, 77, 100)
	if m.C1.Idx != fresh.C1.Idx || m.C1.Tag != fresh.C1.Tag {
		t.Error("VTAGE indices/tags at a position depend on the positions visited before it")
	}
}

// Property: component tags always fit their declared widths (12+rank bits).
func TestVTAGETagWidthProperty(t *testing.T) {
	const maxCount = 1000
	p := vtageOver(DefaultVTAGEConfig(FPCBaseline), randomStream(4, maxCount))
	pos := uint64(0)
	f := func(pc uint64) bool {
		m := predictAt(p, pc, pos)
		pos++
		for k := 0; k < NComp; k++ {
			if uint64(m.C1.Tag[k]) >= uint64(1)<<(13+k) {
				return false
			}
			if m.C1.Idx[k+1] >= 1024 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Error(err)
	}
}

// Two VTAGE instances over rows built separately from the same branches
// must produce identical predictions — determinism across the row builder.
func TestVTAGEDeterministicAcrossInstances(t *testing.T) {
	stream := make([]branch, 2000)
	for i := range stream {
		stream[i] = branch{uint64(i % 7), i%3 == 0}
	}
	p1 := vtageOver(DefaultVTAGEConfig(FPCCommit), stream)
	p2 := vtageOver(DefaultVTAGEConfig(FPCCommit), stream)
	for i := range stream {
		pc := uint64(i % 13)
		m1 := predictAt(p1, pc, uint64(i+1))
		m2 := predictAt(p2, pc, uint64(i+1))
		if m1.Pred != m2.Pred || m1.Conf != m2.Conf {
			t.Fatalf("instances diverged at step %d", i)
		}
		v := Value(i % 5)
		p1.Train(pc, v, &m1)
		p2.Train(pc, v, &m2)
	}
}

// refFold folds the newest length entries of hist (hist[len(hist)-1] is the
// newest) into width bits from the definition: the entry of age a, masked
// to width bits, enters rotated left by a mod width.
func refFold(hist []uint64, length, width int) uint64 {
	mask := uint64(1)<<width - 1
	var v uint64
	for a := 0; a < length && a < len(hist); a++ {
		e := hist[len(hist)-1-a] & mask
		n := uint(a % width)
		v ^= (e<<n | e>>(uint(width)-n)) & mask
	}
	return v
}

// TestLookupsMatchReferenceFold checks VTAGE's rows at max_hist 8, 64 and
// 256, and PS's rows, against folds computed from their definition, on
// streams longer than the longest history and on one with no branch: the
// rows cover positions 0..n, every position's row equals its direct
// computation, and distinct ids name distinct rows. It also checks that a
// VTAGE's indices and tags at every position equal the ones its history
// folds and a PC's hashes define, tags at their full width before Meta's
// 16 bits.
func TestLookupsMatchReferenceFold(t *testing.T) {
	streams := map[string][]branch{
		"random":      randomStream(5, 700),
		"one PC":      correlatedStream(400),
		"no branches": nil,
	}
	for name, stream := range streams {
		outcomes := make([]uint64, len(stream))
		path := make([]uint64, len(stream))
		for i, b := range stream {
			if b.taken {
				outcomes[i] = 1
			}
			path[i] = uint64(uint16(b.pc))
		}
		for _, maxHist := range []int{8, 64, 256} {
			cfg := DefaultVTAGEConfig(FPCBaseline)
			cfg.MaxHist = maxHist
			rows := BuildVTAGERows(cfg, branchesOf(stream))
			checkTable(t, fmt.Sprintf("%s, VTAGE max_hist %d", name, maxHist), rows.tab.Rows, rows.tab.At, len(stream))
			p := NewVTAGE(cfg, rows)
			hl := cfg.histLens()
			for pos, id := range rows.tab.At {
				o, pa := outcomes[:pos], path[:pos]
				var want vtageRow
				for k, L := range hl {
					tb := cfg.TagBitsMin + k
					want.idx[k] = uint16(refFold(o, L, cfg.LogTagged) ^ refFold(pa, min(L, 16), cfg.LogTagged))
					want.tag[k] = uint16(refFold(o, L, tb) ^ refFold(o, L, tb-1)<<1)
				}
				if got := rows.tab.Rows[id]; got != want {
					t.Fatalf("%s, max_hist %d: position %d: row %+v, want %+v", name, maxHist, pos, got, want)
				}
				pc := uint64(pos*0x9E37 + 3)
				m := predictAt(p, pc, uint64(pos))
				h, ht := hashPC(pc), hashPC(pc^0x7F4A7C15)
				for k, L := range hl {
					tb := cfg.TagBitsMin + k
					idx := (h ^ h>>uint(10+k) ^ refFold(o, L, cfg.LogTagged) ^ refFold(pa, min(L, 16), cfg.LogTagged)) & (1<<cfg.LogTagged - 1)
					tag := (ht ^ refFold(o, L, tb) ^ refFold(o, L, tb-1)<<1) & (1<<tb - 1)
					if m.C1.Idx[k+1] != uint32(idx) || m.C1.Tag[k] != uint16(tag) {
						t.Fatalf("%s, max_hist %d: position %d component %d: index %d tag %#x, want %d %#x",
							name, maxHist, pos, k, m.C1.Idx[k+1], m.C1.Tag[k], idx, uint16(tag))
					}
				}
			}
		}
		ps := BuildPSRows(branchesOf(stream))
		checkTable(t, name+", PS", ps.tab.Rows, ps.tab.At, len(stream))
		for pos, id := range ps.tab.At {
			if got, want := ps.tab.Rows[id], uint8(refFold(outcomes[:pos], psHistBits, psHistBits)); got != want {
				t.Fatalf("%s, PS: position %d: row %#x, want %#x", name, pos, got, want)
			}
		}
	}
}

// checkTable checks a row table's shape: positions 0..n, every id naming a
// row, and no row twice, so distinct ids name distinct rows.
func checkTable[R comparable](t *testing.T, name string, rows []R, at []uint32, n int) {
	t.Helper()
	if len(at) != n+1 {
		t.Fatalf("%s: %d positions for %d branches", name, len(at), n)
	}
	for p, id := range at {
		if int(id) >= len(rows) {
			t.Fatalf("%s: position %d names row %d of %d", name, p, id, len(rows))
		}
	}
	seen := make(map[R]int, len(rows))
	for id, r := range rows {
		if prev, dup := seen[r]; dup {
			t.Errorf("%s: rows %d and %d are equal", name, prev, id)
		}
		seen[r] = id
	}
}
