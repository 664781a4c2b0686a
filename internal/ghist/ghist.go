// Package ghist maintains the speculative global branch history and path
// history shared by the TAGE branch predictor and the VTAGE value predictor.
//
// The history is a ring of conditional-branch outcomes plus a ring of branch
// PC low bits (the path). Predictors register folded views (circular-shift
// XOR folds of the most recent L bits into W-bit indices, as in TAGE/ITTAGE
// hardware); folds are maintained incrementally on every push. Folds are
// registered before the first push. On rollback (which the pipeline invokes
// when it squashes) the fold values are restored from a per-push checkpoint
// ring.
package ghist

import "fmt"

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

// History is the speculative global history. The zero value is an empty
// history with no registered folds, ready to use.
type History struct {
	bits  [Capacity]byte   // outcome ring: 0 or 1
	path  [Capacity]uint16 // PC low bits of every control µop
	pos   uint64           // total pushes so far; ring index = pos & capMask
	folds []foldSpec

	// ckpt is the fold-value checkpoint ring: slot (p & capMask) holds the
	// complete fold vector as it stood at position p, written by the push
	// that reached p; slot 0 starts as the empty history's all-zero folds.
	// RollTo restores the vector with one copy. Sized by the first push, so
	// it is non-nil exactly when registration has closed.
	ckpt []uint64 // Capacity * len(folds), laid out slot-major
}

// Pos returns the current history position (total outcomes pushed). Pipeline
// components snapshot Pos per in-flight µop and RollTo it on squash.
func (h *History) Pos() uint64 { return h.pos }

// Push appends one branch outcome and its PC to the history and updates all
// registered folds.
func (h *History) Push(taken bool, pc uint64) {
	var b byte
	if taken {
		b = 1
	}
	n := len(h.folds)
	if h.ckpt == nil {
		// Every fold is registered by now, so this allocates once per
		// history rather than once per fold.
		h.ckpt = make([]uint64, Capacity*n)
	}
	idx := h.pos & capMask
	h.bits[idx] = b
	h.path[idx] = uint16(pc)
	h.pos++
	ck := h.ckpt[int(h.pos&capMask)*n : int(h.pos&capMask)*n+n]
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
		ck[i] = f.val
	}
}

// recent returns the i-th most recent entry (i=0 is the newest) from the
// outcome ring, or the path ring when path is set.
func (h *History) recent(i int, path bool) uint16 {
	idx := (h.pos - 1 - uint64(i)) & capMask
	if path {
		return h.path[idx]
	}
	return uint16(h.bits[idx])
}

// RegisterFold registers a folded view of the last length outcomes (or path
// entries) into width bits and returns its handle. Predictors register all
// folds at construction time; registering after the first Push panics, since
// the checkpoint ring is laid out per registered fold.
func (h *History) RegisterFold(length, width int, path bool) Fold {
	if h.ckpt != nil {
		panic("ghist: RegisterFold after Push")
	}
	// The ring overwrites the slot that is exactly Capacity pushes old at
	// every push, so the longest window whose eviction is still readable is
	// Capacity-1.
	if length > Capacity-1 {
		length = Capacity - 1
	}
	if width < 1 {
		width = 1
	}
	// Predictors over one history often ask for the same view (TAGE and
	// VTAGE share lengths and widths): they share its handle, so Push
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

// RollTo rewinds the history to position pos (forgetting newer outcomes) and
// restores every fold from the checkpoint ring to the value it had there.
// The ring holds checkpoints for the Capacity-1 positions before the current
// one, so a rollback of Capacity or more positions panics rather than
// restore a stale slot. Later pushes stay exact while the rollback depth
// plus the longest fold window fits in Capacity: the pipeline rolls back
// only over its in-flight µops.
func (h *History) RollTo(pos uint64) {
	if pos >= h.pos {
		return // nothing newer to forget
	}
	if h.pos-pos >= Capacity {
		panic(fmt.Sprintf("ghist: rollback of %d positions exceeds the %d-entry checkpoint ring", h.pos-pos, Capacity))
	}
	h.pos = pos
	n := len(h.folds)
	ck := h.ckpt[int(pos&capMask)*n : int(pos&capMask)*n+n]
	for i := range h.folds {
		h.folds[i].val = ck[i]
	}
}

// Bit returns the i-th most recent outcome (i=0 newest). It returns false
// beyond the recorded history.
func (h *History) Bit(i int) bool {
	if uint64(i) >= h.pos || i >= Capacity {
		return false
	}
	return h.recent(i, false) == 1
}
