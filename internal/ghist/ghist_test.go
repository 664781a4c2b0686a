package ghist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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

func TestRollToRestoresFolds(t *testing.T) {
	var h History
	f := h.RegisterFold(20, 9, false)
	rng := rand.New(rand.NewSource(11))

	for i := 0; i < 100; i++ {
		h.Push(rng.Intn(2) == 0, uint64(i))
	}
	snapPos := h.Pos()
	snapVal := h.Folded(f)

	for i := 0; i < 30; i++ {
		h.Push(rng.Intn(3) == 0, uint64(1000+i))
	}
	h.RollTo(snapPos)

	if h.Pos() != snapPos {
		t.Errorf("Pos after RollTo = %d, want %d", h.Pos(), snapPos)
	}
	if got := h.Folded(f); got != snapVal {
		t.Errorf("fold after RollTo = %#x, want %#x", got, snapVal)
	}
	// History must be replayable identically after rollback.
	h.Push(true, 42)
	if got, want := h.Folded(f), referenceFold(&h, 20, 9, false); got != want {
		t.Errorf("fold after rollback+push = %#x, want %#x", got, want)
	}
}

func TestRollToNewerPosIsNoop(t *testing.T) {
	var h History
	h.Push(true, 1)
	h.RollTo(99)
	if h.Pos() != 1 {
		t.Errorf("Pos = %d, want 1", h.Pos())
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

// TestFoldsMatchReferenceAcrossRollbacks drives random pushes and
// rollbacks and checks every registered view, shared ones included, against
// the definition after each operation. Shallow rollbacks restore from the
// checkpoint ring. Registering a view mid-stream invalidates the ring, so a
// rollback to a position before the registration is older than the
// checkpoint window and rebuilds by replay. Window plus rollback depth stays
// within the ring, as the pipeline's in-flight branches guarantee.
func TestFoldsMatchReferenceAcrossRollbacks(t *testing.T) {
	views := [][3]int{{8, 5, 0}, {37, 11, 0}, {16, 7, 1}, {8, 5, 0}, {640, 12, 0}, {1, 1, 1}, {37, 11, 1}, {130, 64, 0}}
	var h History
	var handles []Fold
	register := func(v [3]int) {
		handles = append(handles, h.RegisterFold(v[0], v[1], v[2] == 1))
	}
	for _, v := range views {
		register(v)
	}
	check := func(op string) {
		t.Helper()
		for i, v := range views {
			if got, want := h.Folded(handles[i]), referenceFold(&h, v[0], v[1], v[2] == 1); got != want {
				t.Fatalf("after %s at pos %d: view %v = %#x, want %#x", op, h.Pos(), v, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	// Rollbacks average under half a position per push, so the history
	// grows.
	push := func(n int) {
		for i := 0; i < n; i++ {
			h.Push(rng.Intn(2) == 0, uint64(rng.Intn(1<<16)))
			check("push")
			if rng.Intn(64) == 0 {
				h.RollTo(h.Pos() - uint64(rng.Intn(64)))
				check("rollback")
			}
		}
	}
	for round := 0; round < 3; round++ {
		// Grow the history past the ring so entries leave every window.
		push(3 * Capacity)
		registeredAt := h.Pos()
		if registeredAt < uint64(round+1)*Capacity {
			t.Fatalf("round %d: history at %d, not past the ring", round, registeredAt)
		}
		// A view registered now is new to the checkpoint ring: a rollback
		// to a position before it replays the ring.
		v := [3]int{20 + round, 9, round % 2}
		views = append(views, v)
		register(v)
		check("register")
		push(100)
		to := registeredAt - uint64(rng.Intn(300))
		h.RollTo(to)
		if h.Pos() != to {
			t.Fatalf("round %d: rolled back to %d, want %d", round, h.Pos(), to)
		}
		check("rollback past the checkpoints")
	}
}
