package pipeline

import (
	"math/rand"
	"testing"
)

// collect returns the list's members in order.
func collect(l *slotList) []int {
	var out []int
	for s := l.head; s != listEnd; s = l.next[s] {
		out = append(out, s)
	}
	return out
}

func TestSlotListBasicOps(t *testing.T) {
	l := newSlotList(8)
	for _, s := range []int{2, 5, 7} {
		l.pushBack(s)
	}
	if got := collect(&l); len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 7 {
		t.Fatalf("after pushBack: %v", got)
	}
	if !l.has(5) || l.has(3) {
		t.Fatal("membership wrong")
	}
	l.remove(5)
	if got := collect(&l); len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Fatalf("after remove(5): %v", got)
	}
	l.insertAfter(2, 3)       // middle
	l.insertAfter(listEnd, 1) // front
	l.insertAfter(l.tail, 6)  // back
	if got := collect(&l); len(got) != 5 ||
		got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 7 || got[4] != 6 {
		t.Fatalf("after inserts: %v", got)
	}
	l.clear()
	if got := collect(&l); len(got) != 0 {
		t.Fatalf("after clear: %v", got)
	}
	for s := 0; s < 8; s++ {
		if l.has(s) {
			t.Fatalf("slot %d still a member after clear", s)
		}
	}
}

// TestSlotListRandomizedAgainstModel drives the list with random operations
// and checks it against a plain-slice reference model.
func TestSlotListRandomizedAgainstModel(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(7))
	l := newSlotList(n)
	var model []int

	idxOf := func(s int) int {
		for i, v := range model {
			if v == s {
				return i
			}
		}
		return -1
	}

	for op := 0; op < 20_000; op++ {
		s := rng.Intn(n)
		switch rng.Intn(4) {
		case 0: // pushBack if absent
			if !l.has(s) {
				l.pushBack(s)
				model = append(model, s)
			}
		case 1: // remove if present
			if l.has(s) {
				l.remove(s)
				i := idxOf(s)
				model = append(model[:i], model[i+1:]...)
			}
		case 2: // insertAfter a random present anchor (or front)
			if l.has(s) {
				continue
			}
			if len(model) == 0 || rng.Intn(4) == 0 {
				l.insertAfter(listEnd, s)
				model = append([]int{s}, model...)
			} else {
				anchor := model[rng.Intn(len(model))]
				l.insertAfter(anchor, s)
				i := idxOf(anchor)
				model = append(model[:i+1], append([]int{s}, model[i+1:]...)...)
			}
		case 3: // occasional clear
			if rng.Intn(50) == 0 {
				l.clear()
				model = model[:0]
			}
		}
		if got := collect(&l); len(got) != len(model) {
			t.Fatalf("op %d: list %v vs model %v", op, got, model)
		} else {
			for i := range got {
				if got[i] != model[i] {
					t.Fatalf("op %d: list %v vs model %v", op, got, model)
				}
			}
		}
	}
}

// TestSlotSetNextAgainstModel checks slotSet.next on random sets and
// ranges, sizes that do and do not fill the last word included, against a
// plain boolean model.
func TestSlotSetNextAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 63, 64, 65, 128, 200, 256} {
		b := newSlotSet(n)
		model := make([]bool, n)
		for op := 0; op < 5_000; op++ {
			s := rng.Intn(n)
			if rng.Intn(2) == 0 {
				b.add(s)
				model[s] = true
			} else {
				b.del(s)
				model[s] = false
			}
			from, to := rng.Intn(n+1), rng.Intn(n+1)
			want := -1
			for i := from; i < to; i++ {
				if model[i] {
					want = i
					break
				}
			}
			if got := b.next(from, to); got != want {
				t.Fatalf("n=%d op %d: next(%d, %d) = %d, want %d", n, op, from, to, got, want)
			}
			if b.has(s) != model[s] {
				t.Fatalf("n=%d op %d: has(%d) = %v", n, op, s, b.has(s))
			}
		}
	}
}
