package bpred

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/ghist"
)

// branch is one conditional branch of a stream: its PC and outcome.
type branch struct {
	pc    uint64
	taken bool
}

// lookupsOf builds the default configuration's lookups for stream.
func lookupsOf(stream []branch) *Lookups {
	return BuildLookups(DefaultTageConfig(), func(yield func(uint64, bool) bool) {
		for _, b := range stream {
			if !yield(b.pc, b.taken) {
				return
			}
		}
	})
}

// runPattern feeds TAGE n occurrences of a branch at pc whose outcome
// follows pattern cyclically, predicting each at its history position and
// training after it, and returns the accuracy over the last `tail`
// occurrences.
func runPattern(pc uint64, pattern []bool, n, tail int) float64 {
	stream := make([]branch, n)
	for i := range stream {
		stream[i] = branch{pc, pattern[i%len(pattern)]}
	}
	t := NewTage(lookupsOf(stream))
	correct := 0
	for i, b := range stream {
		pred, m := t.Predict(b.pc, uint64(i))
		if i >= n-tail && pred == b.taken {
			correct++
		}
		t.Train(b.pc, b.taken, &m)
	}
	return float64(correct) / float64(tail)
}

func TestTageAlwaysTaken(t *testing.T) {
	if acc := runPattern(100, []bool{true}, 200, 100); acc != 1.0 {
		t.Errorf("always-taken accuracy = %.3f, want 1.0", acc)
	}
}

func TestTageShortPeriodicPattern(t *testing.T) {
	// TTN repeating — bimodal alone cannot exceed 2/3, TAGE must nail it.
	if acc := runPattern(100, []bool{true, true, false}, 3000, 500); acc < 0.98 {
		t.Errorf("TTN pattern accuracy = %.3f, want ≥ 0.98", acc)
	}
}

func TestTageLongPeriodicPattern(t *testing.T) {
	// Period-17 pattern requires a history longer than bimodal's zero.
	pattern := make([]bool, 17)
	for i := range pattern {
		pattern[i] = i%3 == 0
	}
	if acc := runPattern(100, pattern, 6000, 1000); acc < 0.95 {
		t.Errorf("period-17 accuracy = %.3f, want ≥ 0.95", acc)
	}
}

func TestTageHistoryLengthsGeometric(t *testing.T) {
	histLen, _ := DefaultTageConfig().geometry()
	if got := histLen[0]; got != 4 {
		t.Errorf("first history length = %d, want 4", got)
	}
	if got := histLen[NTables-1]; got != 640 {
		t.Errorf("last history length = %d, want 640", got)
	}
	for k := 1; k < NTables; k++ {
		if histLen[k] <= histLen[k-1] {
			t.Errorf("history lengths not increasing at %d: %d <= %d", k, histLen[k], histLen[k-1])
		}
	}
}

func TestTageEntryBudget(t *testing.T) {
	tg := NewTage(lookupsOf(nil))
	// Paper: "15K-entry total". 8192 + 12*512 = 14336.
	if n := tg.Entries(); n < 14000 || n > 16000 {
		t.Errorf("TAGE entries = %d, want ≈ 15K", n)
	}
}

func TestTageCorrelatedBranches(t *testing.T) {
	// Branch B is always the opposite of the preceding branch A: global
	// history correlation that bimodal can't see when A is random.
	rng := rand.New(rand.NewSource(3))
	const n, tail = 8000, 1000
	stream := make([]branch, 0, 2*n)
	for range n {
		a := rng.Intn(2) == 0
		stream = append(stream, branch{10, a}, branch{20, !a})
	}
	tg := NewTage(lookupsOf(stream))
	correctB := 0
	for p, b := range stream {
		pred, m := tg.Predict(b.pc, uint64(p))
		if b.pc == 20 && p >= 2*(n-tail) && pred == b.taken {
			correctB++
		}
		tg.Train(b.pc, b.taken, &m)
	}
	if acc := float64(correctB) / tail; acc < 0.95 {
		t.Errorf("correlated branch accuracy = %.3f, want ≥ 0.95", acc)
	}
}

// refFold folds the newest length entries of hist (hist[len(hist)-1] is the
// newest) into width bits from the definition, as ghist's own reference
// does: the entry of age a, masked to width bits, enters rotated left by
// a mod width.
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

// refRow computes TAGE's lookup for the branch at pc after the branches of
// prefix from the definition of every fold, with no incremental history.
func refRow(cfg TageConfig, prefix []branch, pc uint64) lookupRow {
	outcomes := make([]uint64, len(prefix))
	path := make([]uint64, len(prefix))
	for i, b := range prefix {
		if b.taken {
			outcomes[i] = 1
		}
		path[i] = uint64(uint16(b.pc))
	}
	histLen, tagBits := cfg.geometry()
	hi, ht := hash64(pc), hash64(pc^0x61C88647)
	var r lookupRow
	for k := range NTables {
		L, w := histLen[k], cfg.LogTagged
		idx := hi ^ hi>>uint(9+k) ^ refFold(outcomes, L, w) ^ refFold(path, min(L, 16), w)
		r.idx[k] = uint16(idx & (uint64(1)<<w - 1))
		tag := ht ^ refFold(outcomes, L, tagBits[k]) ^ refFold(outcomes, L, tagBits[k]-1)<<1
		r.tag[k] = uint16(tag & (uint64(1)<<tagBits[k] - 1))
	}
	return r
}

// TestLookupsMatchReferenceFold checks BuildLookups against TAGE's lookup
// computed from the definition of each fold, on streams longer than the
// longest history (640) and on one with no branch: the rows cover
// positions 0..n, every position's row equals its direct computation (at
// n, where no branch follows, for PC 0), and the interned table holds no
// row twice, so distinct ids name distinct rows. The periodic stream must
// share rows.
func TestLookupsMatchReferenceFold(t *testing.T) {
	cfg := DefaultTageConfig()
	rng := rand.New(rand.NewSource(5))
	random := func(n, pcs int) []branch {
		s := make([]branch, n)
		for i := range s {
			s[i] = branch{uint64(rng.Intn(pcs)) * 0x1001, rng.Intn(3) != 0}
		}
		return s
	}
	periodic := make([]branch, 1500)
	for i := range periodic {
		periodic[i] = branch{uint64(40 + i%5), i%7 < 4}
	}
	streams := map[string][]branch{
		"random, 4 PCs":          random(1400, 4),
		"random, 1000 PCs":       random(1000, 1000),
		"periodic, 5 PCs":        periodic,
		"random, one PC":         random(700, 1),
		"periodic, 5 PCs, short": periodic[:300],
		"no branches":            nil,
	}
	for name, stream := range streams {
		lk := lookupsOf(stream)
		if len(lk.tab.At) != len(stream)+1 {
			t.Fatalf("%s: %d positions for %d branches", name, len(lk.tab.At), len(stream))
		}
		for p, id := range lk.tab.At {
			if int(id) >= len(lk.tab.Rows) {
				t.Fatalf("%s: position %d names row %d of %d", name, p, id, len(lk.tab.Rows))
			}
			var pc uint64
			if p < len(stream) {
				pc = stream[p].pc
			}
			if got, want := lk.tab.Rows[id], refRow(cfg, stream[:p], pc); got != want {
				t.Fatalf("%s: position %d: row %+v, want %+v", name, p, got, want)
			}
		}
		seen := make(map[lookupRow]int, len(lk.tab.Rows))
		for id, r := range lk.tab.Rows {
			if prev, dup := seen[r]; dup {
				t.Errorf("%s: rows %d and %d are equal", name, prev, id)
			}
			seen[r] = id
		}
	}
	if lk := lookupsOf(periodic); len(lk.tab.Rows) >= len(lk.tab.At)/2 {
		t.Errorf("periodic stream: %d distinct rows for %d positions, want sharing", len(lk.tab.Rows), len(lk.tab.At))
	}
}

// internSink keeps TestLookupsAllocateOnlyRowsIdsAndRings' reference map
// on the heap, where the builder's map lives.
var internSink map[lookupRow]uint32

// allocBytes returns the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLookupsAllocateOnlyRowsIdsAndRings: building a trace's lookups
// allocates its rows, its ids, the private history's outcome and path
// rings and the map that interns the rows, and nothing per position
// beyond them. The map is measured by building the same one over the same
// rows; the slack covers TAGE's 48 views, their fold state and handles
// (under 5 KB). A stream of 500 branches keeps the map in one table, so
// its growth is the same in both builds.
func TestLookupsAllocateOnlyRowsIdsAndRings(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	stream := make([]branch, 500)
	for i := range stream {
		stream[i] = branch{uint64(rng.Intn(64)), rng.Intn(2) == 0}
	}
	var lk *Lookups
	got := allocBytes(func() { lk = lookupsOf(stream) })
	interning := allocBytes(func() {
		internSink = make(map[lookupRow]uint32)
		for id, r := range lk.tab.Rows {
			internSink[r] = uint32(id)
		}
	})
	internSink = nil
	rows := uint64(len(lk.tab.Rows)) * uint64(unsafe.Sizeof(lookupRow{}))
	ids := uint64(len(lk.tab.At)) * 4
	rings := uint64(ghist.Capacity) * (1 + 2) // 1-B outcomes, 2-B path entries
	const slack = 8 << 10
	if limit := rows + ids + rings + interning + slack; got > limit {
		t.Errorf("building lookups for %d branches allocated %d B, over the %d B of %d B rows, %d B ids, %d B rings, %d B interning and %d B slack",
			len(stream), got, limit, rows, ids, rings, interning, slack)
	}
	t.Logf("%d branches, %d distinct rows: %d B allocated (rows %d, ids %d, rings %d, interning %d)",
		len(stream), len(lk.tab.Rows), got, rows, ids, rings, interning)
}

func TestBTBInsertLookup(t *testing.T) {
	b := NewBTB(12)
	if _, hit := b.Lookup(0x400); hit {
		t.Error("empty BTB hit")
	}
	b.Insert(0x400, 77)
	if tgt, hit := b.Lookup(0x400); !hit || tgt != 77 {
		t.Errorf("Lookup = (%d,%v), want (77,true)", tgt, hit)
	}
	b.Insert(0x400, 99) // update in place
	if tgt, _ := b.Lookup(0x400); tgt != 99 {
		t.Errorf("updated target = %d, want 99", tgt)
	}
}

func TestBTBLRUReplacement(t *testing.T) {
	b := NewBTB(1) // 1 set, 2 ways
	b.Insert(1, 10)
	b.Insert(2, 20)
	b.Lookup(1)     // make pc=1 MRU
	b.Insert(3, 30) // must evict pc=2
	if _, hit := b.Lookup(1); !hit {
		t.Error("MRU entry evicted")
	}
	if _, hit := b.Lookup(2); hit {
		t.Error("LRU entry survived")
	}
	if tgt, hit := b.Lookup(3); !hit || tgt != 30 {
		t.Error("new entry not inserted")
	}
}

func TestBTBEntries(t *testing.T) {
	if got := NewBTB(12).Entries(); got != 4096 {
		t.Errorf("Entries = %d, want 4096", got)
	}
}

func TestRASPushPop(t *testing.T) {
	var r RAS
	r.Push(100)
	r.Push(200)
	if got := r.Pop(); got != 200 {
		t.Errorf("Pop = %d, want 200", got)
	}
	if got := r.Pop(); got != 100 {
		t.Errorf("Pop = %d, want 100", got)
	}
}

func TestRASRestore(t *testing.T) {
	var r RAS
	r.Push(100)
	chk := r.Top()
	r.Push(200)
	r.Pop()
	r.Pop() // wrong-path pops
	r.Restore(chk)
	if got := r.Pop(); got != 100 {
		t.Errorf("after restore Pop = %d, want 100", got)
	}
}

func TestRASDepthWraps(t *testing.T) {
	var r RAS
	for i := uint32(0); i < 40; i++ {
		r.Push(i)
	}
	// The last 32 pushes survive; deeper frames were overwritten.
	for i := uint32(39); i >= 8; i-- {
		if got := r.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
}

// Property: TAGE Predict/Train never panic and stay in range under random
// interleavings of branch PCs, outcomes, and history pushes over built
// lookups: a prediction without a push repeats a position, as a re-fetch
// after a squash does.
func TestTageRobustProperty(t *testing.T) {
	const maxCount = 3000
	rng := rand.New(rand.NewSource(9))
	stream := make([]branch, maxCount+1)
	for i := range stream {
		stream[i] = branch{uint64(rng.Int63()), rng.Intn(2) == 0}
	}
	lk := lookupsOf(stream)
	tg := NewTage(lk)
	pos := uint64(0)
	f := func(pc uint64, outcome, push bool) bool {
		_, m := tg.Predict(pc, pos)
		tg.Train(pc, outcome, &m)
		if push {
			pos++
		}
		return m.Prov >= -1 && m.Prov < NTables &&
			(m.AltProv == -1 || m.AltProv >= 0 && m.AltProv < m.Prov) &&
			m.Row < uint32(len(lk.tab.Rows)) && m.BaseIdx < 1<<DefaultTageConfig().LogBase
	}
	if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Error(err)
	}
}
