package memdep

import (
	"math"
	"testing"
)

func TestNoSetNoWait(t *testing.T) {
	s := New(10)
	if _, wait := s.LoadFetched(100); wait {
		t.Error("load with no store set told to wait")
	}
	if _, has := s.StoreFetched(200, 1); has {
		t.Error("store with no set returned a predecessor")
	}
}

func TestViolationCreatesSharedSet(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	if s.SSID(100) == Invalid || s.SSID(100) != s.SSID(200) {
		t.Fatalf("load/store SSIDs = %d,%d, want equal and valid", s.SSID(100), s.SSID(200))
	}
}

func TestLoadWaitsForInFlightStore(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.StoreFetched(200, 55)
	tok, wait := s.LoadFetched(100)
	if !wait || tok != 55 {
		t.Errorf("LoadFetched = (%d,%v), want (55,true)", tok, wait)
	}
	s.StoreRetired(200, 55)
	if _, wait := s.LoadFetched(100); wait {
		t.Error("load still waiting after store retired")
	}
}

func TestStoreChainReturnsPredecessor(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.Violation(100, 300) // second store joins the same set
	if s.SSID(200) != s.SSID(300) {
		t.Fatal("stores not merged into one set")
	}
	s.StoreFetched(200, 1)
	prev, has := s.StoreFetched(300, 2)
	if !has || prev != 1 {
		t.Errorf("store chaining: prev = (%d,%v), want (1,true)", prev, has)
	}
}

func TestMergeAdoptsSmallerSSID(t *testing.T) {
	s := New(10)
	s.Violation(1, 2) // set A
	s.Violation(3, 4) // set B
	a, b := s.SSID(1), s.SSID(3)
	if a == b {
		t.Skip("hash collision placed both violations in one set")
	}
	s.Violation(1, 4) // merges A and B
	if s.SSID(1) != s.SSID(4) {
		t.Error("sets not merged after cross violation")
	}
	got := s.SSID(1)
	if got != minU32(a, b) {
		t.Errorf("merged SSID = %d, want min(%d,%d)", got, a, b)
	}
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func TestClearInvalidatesLFST(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.StoreFetched(200, 9)
	s.Clear()
	if _, wait := s.LoadFetched(100); wait {
		t.Error("LFST entry survived Clear")
	}
}

func TestStoreRetiredOnlyClearsOwnToken(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.StoreFetched(200, 1)
	s.StoreFetched(200, 2) // newer instance of the same store
	s.StoreRetired(200, 1) // old instance retires
	if _, wait := s.LoadFetched(100); !wait {
		t.Error("newer in-flight store forgotten when older instance retired")
	}
}

// TestClearAcrossEpochWrap: Clear invalidates by bumping the epoch, so the
// wrap must reset every entry, or an entry written one full epoch cycle
// earlier would turn valid again.
func TestClearAcrossEpochWrap(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.Violation(300, 400)
	if s.SSID(100) == s.SSID(300) {
		t.Skip("hash collision placed both violations in one set")
	}
	s.StoreFetched(200, 7) // written at epoch 1
	s.epoch = math.MaxUint32 - 1
	s.StoreFetched(400, 8) // written at the epoch just before the wrap
	for i := 0; i < 2; i++ {
		s.Clear()
		for _, pc := range []uint64{100, 300} {
			if tok, wait := s.LoadFetched(pc); wait {
				t.Fatalf("after %d clears (epoch %d): load %d still waits on token %d", i+1, s.epoch, pc, tok)
			}
		}
	}
	if s.epoch != 1 {
		t.Errorf("epoch after wrap = %d, want 1", s.epoch)
	}
	s.StoreFetched(200, 9)
	if tok, wait := s.LoadFetched(100); !wait || tok != 9 {
		t.Errorf("after wrap: LoadFetched = (%d,%v), want (9,true)", tok, wait)
	}
}

// TestSnapshotRestoreKeepsEpoch: a restored predictor agrees with its
// donor on which LFST entries are live, across a Clear.
func TestSnapshotRestoreKeepsEpoch(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.StoreFetched(200, 5)
	s.Clear()
	s.Clear()
	st := s.Snapshot()
	r := New(10)
	r.Restore(st)
	if _, wait := r.LoadFetched(100); wait {
		t.Error("restored predictor revived a cleared entry")
	}
	r.StoreFetched(200, 6)
	if tok, wait := r.LoadFetched(100); !wait || tok != 6 {
		t.Errorf("restored predictor: LoadFetched = (%d,%v), want (6,true)", tok, wait)
	}
}
