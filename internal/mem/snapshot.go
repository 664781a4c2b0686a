package mem

// CacheState is an opaque snapshot of one cache level's mutable state
// (tags, fill/LRU timestamps, in-flight misses, counters). Configuration
// (geometry, latencies, next-level wiring) is not captured; Restore
// reinstates the snapshot in place on an identically configured Cache.
type CacheState struct {
	ways                                             []way // all sets' ways, flattened in set order
	inflight                                         []mshr
	hits, misses, mergedMisses, mshrStalls, prefills uint64
	pf                                               *PrefetcherState // attached prefetcher, nil if none
}

// Snapshot deep-copies the cache contents.
func (c *Cache) Snapshot() *CacheState {
	if len(c.sets) == 0 {
		return &CacheState{}
	}
	assoc := len(c.sets[0].ways)
	st := &CacheState{
		ways:         make([]way, len(c.sets)*assoc),
		inflight:     append([]mshr(nil), c.inflight...),
		hits:         c.hits,
		misses:       c.misses,
		mergedMisses: c.mergedMisses,
		mshrStalls:   c.mshrStalls,
		prefills:     c.prefills,
	}
	for i := range c.sets {
		copy(st.ways[i*assoc:], c.sets[i].ways)
	}
	if c.pf != nil {
		st.pf = c.pf.Snapshot()
	}
	return st
}

// Restore reinstates a snapshot taken from an identically configured cache.
func (c *Cache) Restore(st *CacheState) {
	if len(c.sets) > 0 {
		assoc := len(c.sets[0].ways)
		for i := range c.sets {
			copy(c.sets[i].ways, st.ways[i*assoc:(i+1)*assoc])
		}
	}
	c.inflight = append(c.inflight[:0], st.inflight...)
	c.hits = st.hits
	c.misses = st.misses
	c.mergedMisses = st.mergedMisses
	c.mshrStalls = st.mshrStalls
	c.prefills = st.prefills
	if c.pf != nil && st.pf != nil {
		c.pf.Restore(st.pf)
	}
}

// PrefetcherState is an opaque snapshot of a StridePrefetcher.
type PrefetcherState struct {
	table  []pfEntry
	issued uint64
}

// Snapshot copies the detection table and issue counter.
func (p *StridePrefetcher) Snapshot() *PrefetcherState {
	return &PrefetcherState{table: append([]pfEntry(nil), p.table...), issued: p.issued}
}

// Restore reinstates a snapshot taken from an identically sized prefetcher.
func (p *StridePrefetcher) Restore(st *PrefetcherState) {
	copy(p.table, st.table)
	p.issued = st.issued
}
