package core

import "testing"

// --- Per-Path Stride ---

func TestPSPredictsAffine(t *testing.T) {
	p := NewPS(10, 10, FPCBaseline, 1, BuildPSRows(branchesOf(nil)))
	correct, wrong := drive(p, 100, affineSeq(500, 16, 60), 40)
	if wrong != 0 {
		t.Errorf("PS made %d wrong confident predictions on affine sequence", wrong)
	}
	if correct < 35 {
		t.Errorf("PS confident-correct = %d, want ≥ 35", correct)
	}
}

func TestPSDistinguishesStridesByPath(t *testing.T) {
	// One instruction whose delta depends on the preceding branch direction:
	// +1 after taken, +100 after not-taken. A plain stride predictor cannot
	// hold both strides; PS keys the stride on history bits.
	const n, tail = 4000, 500
	stream := make([]branch, 0, 2*n)
	for i := 0; i < n; i++ {
		taken := (i/4)%2 == 0 // direction changes every 4 iterations
		// Two branches per iteration widen the path signature.
		stream = append(stream, branch{0x77, taken}, branch{0x78, taken})
	}
	p := NewPS(10, 10, FPCBaseline, 1, BuildPSRows(branchesOf(stream)))
	v := Value(0)
	correct, confident := 0, 0
	for i := 0; i < n; i++ {
		delta := Value(100)
		if stream[2*i].taken {
			delta = 1
		}
		v += delta
		m := predictAt(p, 42, uint64(2*i+2)) // after the iteration's branches
		m.Seq = uint64(i)
		p.FeedSpec(42, v, uint64(i))
		if i >= n-tail && m.Conf {
			confident++
			if m.Pred == v {
				correct++
			}
		}
		p.Train(42, v, &m)
	}
	if confident == 0 {
		t.Fatal("PS never confident on path-dependent strides")
	}
	if acc := float64(correct) / float64(confident); acc < 0.7 {
		t.Errorf("PS accuracy on path-dependent strides = %.3f, want ≥ 0.7", acc)
	}
}

func TestPSSquashAndStorage(t *testing.T) {
	p := NewPS(10, 10, FPCBaseline, 1, BuildPSRows(branchesOf(nil)))
	p.FeedSpec(1, 5, 10)
	p.Squash(10)
	if m := predict(p, 1); m.Conf {
		t.Error("fresh PS confident")
	}
	if p.StorageBits() <= 0 {
		t.Error("PS storage not accounted")
	}
	if p.Name() != "PS" {
		t.Errorf("Name = %q", p.Name())
	}
}

// --- gDiff ---

// driveGDiff runs a synthetic stream where instruction B's result always
// equals (last result of instruction A) + delta: the global-stride pattern
// gDiff exists to capture and no per-PC predictor can.
func driveGDiff(p *GDiff, n, tail int, delta Value) (confCorrect, confWrong int) {
	seq := uint64(0)
	x := Value(1000)
	for i := 0; i < n; i++ {
		// Instruction A produces an erratic value.
		x = x*6364136223846793005 + 1442695040888963407
		ma := predict(p, 10)
		ma.Seq = seq
		p.FeedSpec(10, x, seq)
		p.Train(10, x, &ma)
		seq++

		// Instruction B produces A's result plus delta.
		want := x + delta
		mb := predict(p, 20)
		mb.Seq = seq
		if mb.Conf && i >= n-tail {
			if mb.Pred == want {
				confCorrect++
			} else {
				confWrong++
			}
		}
		p.FeedSpec(20, want, seq)
		p.Train(20, want, &mb)
		seq++
	}
	return
}

func TestGDiffCapturesGlobalStride(t *testing.T) {
	p := NewGDiff(10, FPCBaseline, 1)
	correct, wrong := driveGDiff(p, 500, 300, 7)
	if wrong != 0 {
		t.Errorf("gDiff made %d wrong confident predictions on global stride", wrong)
	}
	if correct < 250 {
		t.Errorf("gDiff confident-correct = %d, want ≥ 250", correct)
	}
}

func TestLVPCannotCaptureGlobalStride(t *testing.T) {
	// Sanity companion: the same stream defeats a per-PC last value
	// predictor (values of B are erratic per PC).
	p := NewLVP(10, FPCBaseline, 1)
	x := Value(1000)
	confident := 0
	for i := 0; i < 500; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m := predict(p, 20)
		if m.Conf {
			confident++
		}
		p.Train(20, x+7, &m)
	}
	if confident > 5 {
		t.Errorf("LVP confident %d times on erratic global-stride values", confident)
	}
}

func TestGDiffRingRepairOnRefetch(t *testing.T) {
	p := NewGDiff(10, FPCBaseline, 1)
	// Feed occurrences 1..5, then a refetch starting over at 3: the ring
	// must discard 3..5 before re-inserting.
	for s := uint64(1); s <= 5; s++ {
		p.FeedSpec(uint64(100+s), Value(s*10), s)
	}
	p.FeedSpec(103, 999, 3) // refetch of occurrence 3 with a new value
	var snap [gdiffDepth]Value
	p.snapshot(&snap)
	if snap[0] != 999 {
		t.Errorf("newest after refetch = %d, want 999", snap[0])
	}
	if snap[1] != 20 {
		t.Errorf("second-newest after refetch = %d, want 20 (occurrence 2)", snap[1])
	}
}

func TestGDiffStorageAndName(t *testing.T) {
	p := NewGDiff(10, FPCBaseline, 1)
	if p.StorageBits() <= 0 {
		t.Error("gDiff storage not accounted")
	}
	if p.Name() != "gDiff" {
		t.Errorf("Name = %q", p.Name())
	}
	p.Squash(0) // no-op, must not panic
}
