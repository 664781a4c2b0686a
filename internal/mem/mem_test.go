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

// TestRestoreWithOutstandingMSHRs: a hierarchy restored while misses are
// still outstanding answers a following access sequence (merges into
// pending fills, a rejection with the MSHRs full, new misses once fills
// complete) exactly as the live hierarchy it was taken from.
func TestRestoreWithOutstandingMSHRs(t *testing.T) {
	build := func() (*Cache, *Cache, *dram.Memory) {
		d := dram.New(dram.DefaultConfig())
		l2 := NewCache(Config{Name: "L2", Bytes: 2 << 20, Assoc: 16, Latency: 12, MSHRs: 8}, nil, d)
		l1 := NewCache(Config{Name: "L1D", Bytes: 32 << 10, Assoc: 4, Latency: 2, MSHRs: 3}, l2, nil)
		return l1, l2, d
	}
	l1, l2, d := build()
	for i, addr := range []uint64{0x10000, 0x20000, 0x30000} {
		if _, ok := l1.Access(int64(i), addr, 1, false, true); !ok {
			t.Fatalf("miss %d rejected", i)
		}
	}
	if len(l1.inflight) != 3 {
		t.Fatalf("%d outstanding L1 misses, want 3", len(l1.inflight))
	}
	s1, s2, sd := l1.Snapshot(), l2.Snapshot(), d.Snapshot()

	type result struct {
		done int64
		ok   bool
	}
	probe := func(c *Cache) []result {
		var out []result
		for _, a := range []struct {
			now  int64
			addr uint64
		}{
			{5, 0x20008},    // merges with a pending fill
			{6, 0x40000},    // rejected: all MSHRs busy
			{7, 0x10000},    // line present, fill still outstanding
			{400, 0x40000},  // fills done: reaped, accepted
			{401, 0x50000},  // another new miss
			{402, 0x40010},  // merges with the 0x40000 fill
			{5000, 0x60000}, // everything drained
			{5001, 0x30000}, // hit
			{5002, 0x70000}, // new miss
			{5003, 0x700f0}, // other line of the same page
			{5004, 0x80000}, // new miss
			{5005, 0x90000}, // rejected again
		} {
			done, ok := c.Access(a.now, a.addr, 1, false, true)
			out = append(out, result{done, ok})
		}
		return out
	}
	want := probe(l1)

	r1, r2, rd := build()
	r1.Restore(s1)
	r2.Restore(s2)
	rd.Restore(sd)
	got := probe(r1)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("access %d: restored (%d,%v), live (%d,%v)", i, got[i].done, got[i].ok, want[i].done, want[i].ok)
		}
	}
	var ls, rs [5]uint64
	ls[0], ls[1], ls[2], ls[3], ls[4] = l1.Stats()
	rs[0], rs[1], rs[2], rs[3], rs[4] = r1.Stats()
	if ls != rs {
		t.Errorf("restored stats %v, live %v", rs, ls)
	}
	if ls[3] == 0 || ls[2] == 0 {
		t.Errorf("probe exercised no MSHR rejection or merge: stats %v", ls)
	}
}
