package mem

import (
	"testing"

	"repro/internal/dram"
)

// hierarchy builds the paper's L1D -> L2 -> DRAM stack.
func hierarchy() (*Cache, *Cache, *dram.Memory) {
	d := dram.New(dram.DefaultConfig())
	l2 := NewCache(Config{Name: "L2", Bytes: 2 << 20, Assoc: 16, Latency: 12, MSHRs: 64}, nil, d)
	l1 := NewCache(Config{Name: "L1D", Bytes: 32 << 10, Assoc: 4, Latency: 2, MSHRs: 64}, l2, nil)
	return l1, l2, d
}

func TestL1HitLatency(t *testing.T) {
	l1, _, _ := hierarchy()
	l1.Access(0, 0x1000, 1, false, true) // miss, fills
	now := int64(10_000)
	done, ok := l1.Access(now, 0x1000, 1, false, true)
	if !ok || done-now != 2 {
		t.Errorf("L1 hit latency = %d, want 2", done-now)
	}
}

func TestMissGoesThroughL2ToDRAM(t *testing.T) {
	l1, _, _ := hierarchy()
	done, ok := l1.Access(0, 0x4000, 1, false, true)
	if !ok {
		t.Fatal("access rejected")
	}
	// L1(2) + L2(12) + DRAM(130 first access) + L1 fill latency ≈ 146.
	if done < 100 || done > 250 {
		t.Errorf("cold miss latency = %d, want ~146", done)
	}
	// Second touch: L2 hit at most.
	now := int64(100_000)
	done2, _ := l1.Access(now, 0x4000, 1, false, true)
	if done2-now != 2 {
		t.Errorf("refetch latency = %d, want 2 (L1 hit)", done2-now)
	}
}

func TestMSHRMergeSameLine(t *testing.T) {
	l1, _, _ := hierarchy()
	d1, _ := l1.Access(0, 0x8000, 1, false, true)
	d2, ok := l1.Access(1, 0x8008, 1, false, true) // same line, one cycle later
	if !ok {
		t.Fatal("merged access rejected")
	}
	if d2 > d1+2 {
		t.Errorf("merged miss completes at %d, primary at %d — no merge happened", d2, d1)
	}
	_, _, merged, _, _ := l1.Stats()
	if merged != 1 {
		t.Errorf("merged misses = %d, want 1", merged)
	}
}

func TestMSHRFullRejects(t *testing.T) {
	d := dram.New(dram.DefaultConfig())
	l2 := NewCache(Config{Name: "L2", Bytes: 2 << 20, Assoc: 16, Latency: 12, MSHRs: 64}, nil, d)
	l1 := NewCache(Config{Name: "L1D", Bytes: 32 << 10, Assoc: 4, Latency: 2, MSHRs: 2}, l2, nil)
	l1.Access(0, 0x10000, 1, false, true)
	l1.Access(0, 0x20000, 1, false, true)
	if _, ok := l1.Access(0, 0x30000, 1, false, true); ok {
		t.Error("third concurrent miss accepted with 2 MSHRs")
	}
	_, _, _, stalls, _ := l1.Stats()
	if stalls != 1 {
		t.Errorf("mshrStalls = %d, want 1", stalls)
	}
	// After the fills complete, new misses are accepted again.
	if _, ok := l1.Access(1_000_000, 0x30000, 1, false, true); !ok {
		t.Error("miss rejected after MSHRs drained")
	}
}

func TestLRUEviction(t *testing.T) {
	d := dram.New(dram.DefaultConfig())
	// Tiny cache: 2 ways, 1 set (128B).
	c := NewCache(Config{Name: "c", Bytes: 128, Assoc: 2, Latency: 1, MSHRs: 8}, nil, d)
	c.Access(0, 0, 1, false, true)
	c.Access(10, 64, 1, false, true)
	c.Access(20, 0, 1, false, true)   // touch line 0 (MRU)
	c.Access(30, 128, 1, false, true) // evicts line 64
	if !c.Contains(0) {
		t.Error("MRU line evicted")
	}
	if c.Contains(64) {
		t.Error("LRU line survived")
	}
	if !c.Contains(128) {
		t.Error("new line absent")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	d := dram.New(dram.DefaultConfig())
	c := NewCache(Config{Name: "c", Bytes: 128, Assoc: 2, Latency: 1, MSHRs: 8}, nil, d)
	c.Access(0, 0, 1, true, true) // dirty
	c.Access(10, 64, 1, false, true)
	c.Access(20, 128, 1, false, true) // evicts dirty line 0
	_, w, _, _, _ := d.Stats()
	if w != 1 {
		t.Errorf("DRAM writes = %d, want 1 (writeback)", w)
	}
}

func TestPrefetcherIssuesOnConfirmedStride(t *testing.T) {
	d := dram.New(dram.DefaultConfig())
	l2 := NewCache(Config{Name: "L2", Bytes: 2 << 20, Assoc: 16, Latency: 12, MSHRs: 64}, nil, d)
	pf := NewStridePrefetcher(8, 8, l2)
	l2.AttachPrefetcher(pf)

	// Three accesses with the same stride confirm it; prefetches follow.
	for i := 0; i < 4; i++ {
		l2.Access(int64(i*1000), uint64(i)*256, 42, false, true)
	}
	if pf.Issued() == 0 {
		t.Fatal("no prefetches issued on a confirmed stride")
	}
	// The next strided line should now be resident (prefetch distance 1).
	if !l2.Contains(4 * 256) {
		t.Error("next strided line not prefetched into L2")
	}
}

func TestPrefetchHitWaitsForFill(t *testing.T) {
	l1, _, _ := hierarchy()
	l1.Prefetch(0, 0xF000)
	// Demand access immediately after: hit, but data arrives with the fill.
	done, ok := l1.Access(1, 0xF000, 1, false, true)
	if !ok {
		t.Fatal("demand access on in-flight prefetch rejected")
	}
	if done < 75 {
		t.Errorf("demand hit on in-flight prefetch returned %d, before fill could finish", done)
	}
}

func TestDistinctLinesDistinctSets(t *testing.T) {
	// Regression test for tag aliasing: two addresses mapping to the same
	// set must not hit each other's entries.
	d := dram.New(dram.DefaultConfig())
	c := NewCache(Config{Name: "c", Bytes: 32 << 10, Assoc: 4, Latency: 2, MSHRs: 8}, nil, d)
	c.Access(0, 0x2000, 1, false, true)
	if c.Contains(0x4000) {
		t.Error("alias false hit: 0x4000 reported present after filling 0x2000")
	}
}
