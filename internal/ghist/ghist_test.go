package ghist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// recent returns the i-th most recent entry (i=0 is the newest) from the
// outcome ring, or the path ring when path is set: the tests' reader of the
// rings Push writes.
func (h *History) recent(i int, path bool) uint16 {
	idx := (h.pos - 1 - uint64(i)) & capMask
	if path {
		return h.path[idx]
	}
	return uint16(h.bits[idx])
}

// Bit returns the i-th most recent outcome (i=0 newest). It returns false
// beyond the recorded history.
func (h *History) Bit(i int) bool {
	if uint64(i) >= h.pos || i >= Capacity {
		return false
	}
	return h.recent(i, false) == 1
}

func TestPushAndBit(t *testing.T) {
	var h History
	h.Push(true, 0x10)
	h.Push(false, 0x20)
	h.Push(true, 0x30)
	if !h.Bit(0) {
		t.Error("Bit(0) = false, want true (newest)")
	}
	if h.Bit(1) {
		t.Error("Bit(1) = true, want false")
	}
	if !h.Bit(2) {
		t.Error("Bit(2) = false, want true (oldest)")
	}
	if h.Bit(3) {
		t.Error("Bit(3) beyond history should be false")
	}
}

// referenceFold computes the fold value directly from the definition: bit of
// age a contributes at position a mod width.
func referenceFold(h *History, length, width int, path bool) uint64 {
	mask := uint64(1)<<width - 1
	n := length
	if uint64(n) > h.pos {
		n = int(h.pos)
	}
	var v uint64
	for a := 0; a < n; a++ {
		e := uint64(h.recent(a, path)) & mask
		v ^= rotl(e, uint(a%width), width)
	}
	return v
}

// rotl rotates the width-bit value v left by n.
func rotl(v uint64, n uint, width int) uint64 {
	n %= uint(width)
	mask := uint64(1)<<width - 1
	return ((v << n) | (v >> (uint(width) - n))) & mask
}

func TestFoldMatchesReferenceIncrementally(t *testing.T) {
	var h History
	f1 := h.RegisterFold(8, 5, false)
	f2 := h.RegisterFold(37, 11, false)
	f3 := h.RegisterFold(16, 7, true)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		h.Push(rng.Intn(2) == 0, uint64(rng.Intn(1<<16)))
		if got, want := h.Folded(f1), referenceFold(&h, 8, 5, false); got != want {
			t.Fatalf("push %d: fold(8,5) = %#x, want %#x", i, got, want)
		}
		if got, want := h.Folded(f2), referenceFold(&h, 37, 11, false); got != want {
			t.Fatalf("push %d: fold(37,11) = %#x, want %#x", i, got, want)
		}
		if got, want := h.Folded(f3), referenceFold(&h, 16, 7, true); got != want {
			t.Fatalf("push %d: path fold(16,7) = %#x, want %#x", i, got, want)
		}
	}
}

func TestFoldWidthClamping(t *testing.T) {
	var h History
	f := h.RegisterFold(4, 0, false) // width clamped to 1
	h.Push(true, 1)
	if v := h.Folded(f); v > 1 {
		t.Errorf("1-bit fold value %d out of range", v)
	}
}

func TestFoldLengthClampedToCapacity(t *testing.T) {
	var h History
	f := h.RegisterFold(Capacity*2, 10, false)
	for i := 0; i < Capacity+10; i++ {
		h.Push(i%3 == 0, uint64(i))
	}
	if got := h.Folded(f); got != referenceFold(&h, Capacity-1, 10, false) {
		t.Error("over-capacity fold diverged from reference")
	}
}

// Property: fold values always fit in their declared width.
func TestFoldRangeProperty(t *testing.T) {
	f := func(seed int64, width uint8) bool {
		w := int(width%16) + 1
		var h History
		fd := h.RegisterFold(32, w, false)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			h.Push(rng.Intn(2) == 0, uint64(rng.Int()))
			if h.Folded(fd) >= uint64(1)<<w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: two histories fed the same sequence have identical folds
// (determinism), and differ with overwhelming probability after divergent
// suffixes longer than the fold window are applied then compared.
func TestFoldDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		var a, b History
		fa := a.RegisterFold(24, 10, false)
		fb := b.RegisterFold(24, 10, false)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			taken := rng.Intn(2) == 0
			pc := uint64(rng.Int())
			a.Push(taken, pc)
			b.Push(taken, pc)
		}
		return a.Folded(fa) == b.Folded(fb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestIdenticalViewsShareAHandle: registering an identical (length, width,
// path) view returns the existing handle, after clamping; any difference
// in the three gets its own.
func TestIdenticalViewsShareAHandle(t *testing.T) {
	var h History
	a := h.RegisterFold(37, 11, false)
	if b := h.RegisterFold(37, 11, false); b != a {
		t.Errorf("identical view got handle %d, want %d", b, a)
	}
	if c := h.RegisterFold(Capacity*2, 11, false); c != h.RegisterFold(Capacity-1, 11, false) {
		t.Error("views identical after length clamping got different handles")
	}
	if d := h.RegisterFold(4, 0, false); d != h.RegisterFold(4, 1, false) {
		t.Error("views identical after width clamping got different handles")
	}
	seen := map[Fold]bool{a: true}
	for _, v := range [][3]int{{36, 11, 0}, {37, 10, 0}, {37, 11, 1}} {
		f := h.RegisterFold(v[0], v[1], v[2] == 1)
		if seen[f] {
			t.Errorf("distinct view %v shares handle %d", v, f)
		}
		seen[f] = true
	}
	if got, want := len(h.folds), 6; got != want {
		t.Errorf("%d folds registered, want %d", got, want)
	}
}

// foldRow is a row that records everything Build hands its row function:
// the PC of the branch at the position and three fold values.
type foldRow struct {
	pc    uint64
	folds [3]uint64
}

// TestBuildTabulatesEveryPosition checks Build against a History stepped
// alongside it: position p's row carries branch p's PC (0 at the last
// position, where no branch follows) and each view's fold over the first p
// branches, computed from the definition; the table covers positions 0..n,
// and distinct ids name distinct rows. A stream with no branch has the
// empty history's one row.
func TestBuildTabulatesEveryPosition(t *testing.T) {
	views := []View{{8, 5, false}, {37, 11, false}, {16, 7, true}}
	rng := rand.New(rand.NewSource(13))
	type branch struct {
		pc    uint64
		taken bool
	}
	random := make([]branch, 600)
	for i := range random {
		random[i] = branch{uint64(rng.Intn(1 << 16)), rng.Intn(2) == 0}
	}
	periodic := make([]branch, 400)
	for i := range periodic {
		periodic[i] = branch{uint64(0x40 + i%3), i%5 < 2}
	}
	for name, stream := range map[string][]branch{"random": random, "periodic": periodic, "empty": nil} {
		tab := Build(views, func(yield func(uint64, bool) bool) {
			for _, b := range stream {
				if !yield(b.pc, b.taken) {
					return
				}
			}
		}, func(pc uint64, folds []uint64) foldRow {
			return foldRow{pc, [3]uint64(folds)}
		})
		if len(tab.At) != len(stream)+1 {
			t.Fatalf("%s: %d positions for %d branches", name, len(tab.At), len(stream))
		}
		var ref History
		for p := range tab.At {
			var want foldRow
			if p < len(stream) {
				want.pc = stream[p].pc
			}
			for i, v := range views {
				want.folds[i] = referenceFold(&ref, v.Length, v.Width, v.Path)
			}
			if id := tab.At[p]; int(id) >= len(tab.Rows) || tab.Rows[id] != want {
				t.Fatalf("%s: position %d reads row %d, want %+v", name, p, id, want)
			}
			if p < len(stream) {
				ref.Push(stream[p].taken, stream[p].pc)
			}
		}
		seen := make(map[foldRow]bool, len(tab.Rows))
		for id, r := range tab.Rows {
			if seen[r] {
				t.Errorf("%s: row %d repeats an earlier row", name, id)
			}
			seen[r] = true
		}
	}
}
