package pipeline

import "math/bits"

// Chain terminator and not-a-member marker for slotList links.
const (
	listEnd  = -1
	listFree = -2
)

// slotList is an intrusive doubly-linked list over ROB slot numbers, kept in
// age order (oldest first) by its users. Per-cycle pipeline stages iterate
// these worklists — completed-but-unprocessed µops for writeback, IQ
// holders for validation, in-flight loads and stores — instead of scanning
// every ROB slot, turning the dominant per-cycle cost from O(ROB) into
// O(live work). Links live in flat arrays sized to the ROB,
// so membership changes are O(1) pointer swaps with no allocation.
type slotList struct {
	head, tail int
	next, prev []int
}

// newSlotList returns an empty list able to hold slots 0..n-1.
func newSlotList(n int) slotList {
	l := slotList{head: listEnd, tail: listEnd, next: make([]int, n), prev: make([]int, n)}
	for i := 0; i < n; i++ {
		l.next[i] = listFree
		l.prev[i] = listFree
	}
	return l
}

// has reports whether slot s is currently a member.
func (l *slotList) has(s int) bool { return l.next[s] != listFree }

// pushBack appends s at the tail. The caller guarantees s is not already a
// member and is younger (in its age order) than every current member.
func (l *slotList) pushBack(s int) {
	l.next[s] = listEnd
	l.prev[s] = l.tail
	if l.tail == listEnd {
		l.head = s
	} else {
		l.next[l.tail] = s
	}
	l.tail = s
}

// insertAfter links s directly after cur; cur == listEnd inserts at the
// front. The caller guarantees s is not already a member.
func (l *slotList) insertAfter(cur, s int) {
	if cur == listEnd {
		l.prev[s] = listEnd
		l.next[s] = l.head
		if l.head == listEnd {
			l.tail = s
		} else {
			l.prev[l.head] = s
		}
		l.head = s
		return
	}
	n := l.next[cur]
	l.next[cur] = s
	l.prev[s] = cur
	l.next[s] = n
	if n == listEnd {
		l.tail = s
	} else {
		l.prev[n] = s
	}
}

// remove unlinks member s.
func (l *slotList) remove(s int) {
	p, n := l.prev[s], l.next[s]
	if p == listEnd {
		l.head = n
	} else {
		l.next[p] = n
	}
	if n == listEnd {
		l.tail = p
	} else {
		l.prev[n] = p
	}
	l.next[s] = listFree
	l.prev[s] = listFree
}

// clear unlinks every member, leaving the list empty and all slots free.
func (l *slotList) clear() {
	for s := l.head; s != listEnd; {
		n := l.next[s]
		l.next[s] = listFree
		l.prev[s] = listFree
		s = n
	}
	l.head, l.tail = listEnd, listEnd
}

// slotSet is a bitmap over ROB slot numbers. Walked from the head slot with
// wrap-around, its members come out in age order, so a worklist kept as a
// slotSet needs no ordered insertion: a µop re-entering it sets one bit.
type slotSet []uint64

// newSlotSet returns an empty set able to hold slots 0..n-1.
func newSlotSet(n int) slotSet { return make(slotSet, (n+63)/64) }

func (b slotSet) add(s int)      { b[s>>6] |= 1 << (s & 63) }
func (b slotSet) del(s int)      { b[s>>6] &^= 1 << (s & 63) }
func (b slotSet) has(s int) bool { return b[s>>6]&(1<<(s&63)) != 0 }

// next returns the smallest member in [from, to), or -1 if there is none.
// It reads the words afresh on every call, so members added behind a walk
// that has not reached them yet are found.
func (b slotSet) next(from, to int) int {
	if from >= to {
		return -1
	}
	w := from >> 6
	word := b[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		if w++; w<<6 >= to {
			return -1
		}
		word = b[w]
	}
	if s := w<<6 + bits.TrailingZeros64(word); s < to {
		return s
	}
	return -1
}
