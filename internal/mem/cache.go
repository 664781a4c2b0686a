// Package mem models the paper's cache hierarchy (Table 2): 32KB 4-way L1I
// and L1D (2-cycle L1D, 4 load ports, 64 MSHRs) over a unified 2MB 16-way
// 12-cycle L2 with a degree-8 stride prefetcher, 64B lines and LRU
// everywhere, backed by the DDR3 model in package dram.
//
// The hierarchy is a timing model, not a data store: an access returns the
// cycle at which its data is available (or that the miss could not be
// accepted because the MSHRs are full and must retry).
package mem

import "repro/internal/dram"

// LineBytes is the cache line size everywhere (Table 2).
const LineBytes = 64

// Cache is one level of set-associative cache with MSHR-limited misses.
type Cache struct {
	name    string
	sets    []set
	setMask uint64
	setBits uint
	latency int64
	mshrs   int
	next    *Cache       // next level, nil if memory-backed
	memory  *dram.Memory // backing memory for the last level
	pf      *StridePrefetcher

	// inflight holds the outstanding misses, at most mshrs of them, one per
	// line. Accesses to a line already being fetched merge with it (MSHR
	// merge). Entries whose fill completed stay until the next reap.
	inflight []mshr

	hits, misses, mergedMisses, mshrStalls, prefills uint64
}

// mshr is one outstanding miss: the line and the cycle its fill completes.
type mshr struct {
	line uint64
	done int64
}

type set struct {
	ways []way
}

type way struct {
	tag     uint64
	valid   bool
	dirty   bool
	readyAt int64 // fill completion time (prefetches arrive in the future)
	lastUse int64 // LRU timestamp
}

// Config sizes one cache level.
type Config struct {
	Name    string
	Bytes   int
	Assoc   int
	Latency int64
	MSHRs   int
}

// NewCache builds a cache. Exactly one of next/memory must be non-nil.
func NewCache(cfg Config, next *Cache, memory *dram.Memory) *Cache {
	nSets := cfg.Bytes / LineBytes / cfg.Assoc
	setBits := uint(0)
	for 1<<setBits < nSets {
		setBits++
	}
	c := &Cache{
		name:     cfg.Name,
		sets:     make([]set, nSets),
		setMask:  uint64(nSets - 1),
		setBits:  setBits,
		latency:  cfg.Latency,
		mshrs:    cfg.MSHRs,
		next:     next,
		memory:   memory,
		inflight: make([]mshr, 0, cfg.MSHRs),
	}
	for i := range c.sets {
		c.sets[i].ways = make([]way, cfg.Assoc)
	}
	return c
}

// AttachPrefetcher installs a stride prefetcher that observes demand
// accesses to this cache and prefetches into it.
func (c *Cache) AttachPrefetcher(pf *StridePrefetcher) { c.pf = pf }

func (c *Cache) line(addr uint64) uint64 { return addr / LineBytes }

func (c *Cache) find(lineAddr uint64) *way {
	s := &c.sets[lineAddr&c.setMask]
	tag := lineAddr >> c.setBits
	for i := range s.ways {
		if s.ways[i].valid && s.ways[i].tag == tag {
			return &s.ways[i]
		}
	}
	return nil
}

func (c *Cache) victim(lineAddr uint64) *way {
	s := &c.sets[lineAddr&c.setMask]
	v := &s.ways[0]
	for i := range s.ways {
		w := &s.ways[i]
		if !w.valid {
			return w
		}
		if w.lastUse < v.lastUse {
			v = w
		}
	}
	return v
}

// reapInflight drops completed misses so MSHR occupancy reflects only
// genuinely outstanding fills.
func (c *Cache) reapInflight(now int64) {
	n := 0
	for _, m := range c.inflight {
		if m.done > now {
			c.inflight[n] = m
			n++
		}
	}
	c.inflight = c.inflight[:n]
}

// pending returns the fill-done cycle of the outstanding miss on lineAddr.
func (c *Cache) pending(lineAddr uint64) (int64, bool) {
	for _, m := range c.inflight {
		if m.line == lineAddr {
			return m.done, true
		}
	}
	return 0, false
}

// Access requests the line containing addr at cycle now. pc identifies the
// requesting instruction for the prefetcher. It returns the cycle data is
// available and ok=false if the access must retry later (MSHRs full).
// Writes allocate like reads (write-allocate, writeback).
func (c *Cache) Access(now int64, addr uint64, pc uint64, write bool, demand bool) (int64, bool) {
	lineAddr := c.line(addr)

	if c.pf != nil && demand {
		c.pf.Observe(now, pc, addr)
	}

	if w := c.find(lineAddr); w != nil {
		w.lastUse = now
		if write {
			w.dirty = true
		}
		done := now + c.latency
		if w.readyAt > done {
			// The line's fill is still outstanding (earlier miss or
			// prefetch): this access merges with it rather than hitting.
			c.mergedMisses++
			done = w.readyAt + c.latency
		} else {
			c.hits++
		}
		return done, true
	}

	// Miss. Merge with an outstanding fill of the same line if any.
	if done, ok := c.pending(lineAddr); ok {
		c.mergedMisses++
		c.install(lineAddr, done, now, write)
		return done + c.latency, true
	}

	c.reapInflight(now)
	if len(c.inflight) >= c.mshrs {
		c.mshrStalls++
		return 0, false
	}

	c.misses++
	var fillDone int64
	if c.next != nil {
		d, ok := c.next.Access(now+c.latency, addr, pc, false, demand)
		if !ok {
			// Next level out of MSHRs: propagate the retry.
			return 0, false
		}
		fillDone = d
	} else {
		fillDone = c.memory.Access(now+c.latency, addr, false)
	}
	c.inflight = append(c.inflight, mshr{lineAddr, fillDone})
	c.install(lineAddr, fillDone, now, write)
	return fillDone + c.latency, true
}

// install places the line in the cache with its fill time, writing back the
// victim if dirty.
func (c *Cache) install(lineAddr uint64, readyAt, now int64, write bool) {
	if c.find(lineAddr) != nil {
		return
	}
	v := c.victim(lineAddr)
	if v.valid && v.dirty {
		c.writeback(now)
	}
	*v = way{tag: lineAddr >> c.setBits, valid: true, dirty: write, readyAt: readyAt, lastUse: now}
}

// writeback sends a dirty victim down the hierarchy (timing only; the
// requester never waits for it).
func (c *Cache) writeback(now int64) {
	if c.memory != nil {
		c.memory.Access(now, 0, true) // address immaterial for timing stats
	}
	// Writebacks into a next cache level are absorbed by its write buffers;
	// we charge nothing further, matching Table 2's "no port constraints" L2.
}

// Prefetch requests a line fill without a demand requester. It fills this
// cache when the data arrives and never stalls anyone.
func (c *Cache) Prefetch(now int64, addr uint64) {
	lineAddr := c.line(addr)
	if c.find(lineAddr) != nil {
		return
	}
	if _, ok := c.pending(lineAddr); ok {
		return
	}
	c.reapInflight(now)
	if len(c.inflight) >= c.mshrs {
		return // prefetches are droppable
	}
	var fillDone int64
	if c.next != nil {
		d, ok := c.next.Access(now+c.latency, addr, 0, false, false)
		if !ok {
			return
		}
		fillDone = d
	} else {
		fillDone = c.memory.Access(now+c.latency, addr, false)
	}
	c.prefills++
	c.inflight = append(c.inflight, mshr{lineAddr, fillDone})
	c.install(lineAddr, fillDone, now, false)
}

// Contains reports whether the line holding addr is present (for tests and
// the I-cache presence check at fetch).
func (c *Cache) Contains(addr uint64) bool {
	return c.find(c.line(addr)) != nil
}

// Stats returns hit/miss accounting.
func (c *Cache) Stats() (hits, misses, merged, mshrStalls, prefills uint64) {
	return c.hits, c.misses, c.mergedMisses, c.mshrStalls, c.prefills
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }
