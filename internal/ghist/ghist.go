// Package ghist builds the per-position rows through which TAGE and VTAGE
// read the global branch and path history, and PS its history bits.
//
// In this trace-driven model the history at a µop is that of the
// conditional branches before it in the trace, so it depends only on their
// number, the µop's history position: a simulation keeps that position as
// an integer, and a predictor reads its row there from a Table that Build
// made once per trace. Build steps a private History (rings of outcomes
// and branch PC low bits, with TAGE-style folded views maintained
// incrementally on every push) through the trace's conditional branches.
package ghist

import "iter"

const (
	// Capacity is the number of outcomes retained; it bounds the longest
	// usable history length. Power of two.
	Capacity = 2048
	capMask  = Capacity - 1
)

// Fold is a handle to one registered folded view of the history.
type Fold int

type foldSpec struct {
	length int  // history bits folded
	width  int  // output index width in bits
	path   bool // fold the path ring instead of the outcome ring

	// Step constants, fixed at registration: the fold's bit mask, the bit
	// a rotate-left-by-one carries out (width-1), and how far the entry
	// leaving the window has been rotated since it entered (length % width).
	mask uint64
	top  uint
	out  uint

	val uint64 // current folded value
}

// History is the global history Build steps through a trace. The zero
// value is an empty history with no registered folds, ready to use; folds
// are registered before the first push.
type History struct {
	bits  [Capacity]byte   // outcome ring: 0 or 1
	path  [Capacity]uint16 // PC low bits of every control µop
	pos   uint64           // total pushes so far; ring index = pos & capMask
	folds []foldSpec
}

// Push appends one branch outcome and its PC to the history and updates all
// registered folds.
func (h *History) Push(taken bool, pc uint64) {
	var b byte
	if taken {
		b = 1
	}
	idx := h.pos & capMask
	h.bits[idx] = b
	h.path[idx] = uint16(pc)
	h.pos++
	// Step every fold as a TAGE circular shift register: rotate left by
	// one, insert the new entry, and remove the entry that fell off the
	// window. That entry was inserted (masked to width bits) length pushes
	// ago and has been rotated length%width positions since.
	for i := range h.folds {
		f := &h.folds[i]
		in := uint64(b)
		if f.path {
			in = uint64(uint16(pc))
		}
		v := (f.val<<1 | f.val>>f.top) ^ in
		if h.pos >= uint64(f.length) {
			j := (h.pos - 1 - uint64(f.length)) & capMask
			old := uint64(h.bits[j])
			if f.path {
				old = uint64(h.path[j])
			}
			old &= f.mask
			v ^= old<<f.out | old>>(f.top+1-f.out)
		}
		f.val = v & f.mask
	}
}

// RegisterFold registers a folded view of the last length outcomes (or path
// entries) into width bits and returns its handle.
func (h *History) RegisterFold(length, width int, path bool) Fold {
	// The ring overwrites the slot that is exactly Capacity pushes old at
	// every push, so the longest window whose eviction is still readable is
	// Capacity-1.
	if length > Capacity-1 {
		length = Capacity - 1
	}
	if width < 1 {
		width = 1
	}
	// A builder often asks for the same view twice (TAGE's and VTAGE's
	// index and tag folds can coincide): the views share a handle, so Push
	// steps it once.
	for i, f := range h.folds {
		if f.length == length && f.width == width && f.path == path {
			return Fold(i)
		}
	}
	h.folds = append(h.folds, foldSpec{
		length: length,
		width:  width,
		path:   path,
		mask:   uint64(1)<<width - 1,
		top:    uint(width - 1),
		out:    uint(length % width),
	})
	return Fold(len(h.folds) - 1)
}

// Folded returns the current value of fold f.
func (h *History) Folded(f Fold) uint64 { return h.folds[f].val }

// View is a folded view of the last Length outcomes (or path entries) into
// Width bits.
type View struct {
	Length, Width int
	Path          bool
}

// Table is one trace's rows by history position: position p reads
// Rows[At[p]], and positions with equal rows share one. It is read-only
// once built, so every simulation of the trace may share it.
type Table[R comparable] struct {
	Rows []R      // the distinct rows, in order of first position
	At   []uint32 // At[p]: the index in Rows of position p's row
}

// Build tabulates row over a trace whose conditional branches, in trace
// order, are branches (each one's PC and outcome; walked twice, the first
// time to size At). At every position p from 0 to n, the number of
// branches, row gets folds[i], the value of views[i] over the first p
// branches, and pc, the PC of branch p (0 at n, where no branch follows).
func Build[R comparable](views []View, branches iter.Seq2[uint64, bool], row func(pc uint64, folds []uint64) R) Table[R] {
	n := 0
	for range branches {
		n++
	}
	h := &History{folds: make([]foldSpec, 0, len(views))}
	handles := make([]Fold, len(views))
	for i, v := range views {
		handles[i] = h.RegisterFold(v.Length, v.Width, v.Path)
	}
	folds := make([]uint64, len(views))
	ids := make(map[R]uint32)
	at := make([]uint32, 0, n+1)
	add := func(pc uint64) {
		for i, f := range handles {
			folds[i] = h.Folded(f)
		}
		r := row(pc, folds)
		id, ok := ids[r]
		if !ok {
			id = uint32(len(ids))
			ids[r] = id
		}
		at = append(at, id)
	}
	for pc, taken := range branches {
		add(pc)
		h.Push(taken, pc)
	}
	add(0)
	t := Table[R]{Rows: make([]R, len(ids)), At: at}
	for r, id := range ids {
		t.Rows[id] = r
	}
	return t
}
