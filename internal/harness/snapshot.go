package harness

import (
	"container/list"
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// SnapshotCache holds warm-state pipeline snapshots (pipeline.State) keyed
// like the persistent record store minus the measure window: canonical spec
// identity, kernel fingerprint, warmup window, simulator version — the
// warmup-affecting configuration and nothing else, since the state captured
// at the warmup boundary does not depend on how long the measurement that
// follows runs. One cache can be shared by any number of sessions (it is
// safe for concurrent use): a sweep pass that re-runs specs another session
// already warmed — same or different measure window — skips straight to the
// measurement phase, byte-identically (DESIGN.md §9).
//
// Entries are LRU-evicted beyond a fixed count — a snapshot of the default
// machine is 1.4 to 2.2 MB depending on the predictor (dominated by the L2
// tag/LRU arrays), so the default cap of 64 bounds the cache near 140 MB.
type SnapshotCache struct {
	mu      sync.Mutex
	max     int
	entries map[store.Key]*list.Element
	lru     *list.List // front = most recently used; element value is *snapEntry

	hits, misses uint64
}

type snapEntry struct {
	key store.Key
	st  *pipeline.State
}

// DefaultSnapshotCap is the entry cap used when NewSnapshotCache is given a
// non-positive limit.
const DefaultSnapshotCap = 64

// NewSnapshotCache builds a cache holding at most maxEntries snapshots
// (<= 0 selects DefaultSnapshotCap).
func NewSnapshotCache(maxEntries int) *SnapshotCache {
	if maxEntries <= 0 {
		maxEntries = DefaultSnapshotCap
	}
	return &SnapshotCache{
		max:     maxEntries,
		entries: make(map[store.Key]*list.Element),
		lru:     list.New(),
	}
}

// get returns the snapshot for key, or nil. The returned State is shared
// and read-only by contract (pipeline.Restore only reads it).
func (c *SnapshotCache) get(key store.Key) *pipeline.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*snapEntry).st
}

// put inserts (or refreshes) a snapshot, evicting the least recently used
// entry beyond the cap.
func (c *SnapshotCache) put(key store.Key, st *pipeline.State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*snapEntry).st = st
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&snapEntry{key: key, st: st})
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*snapEntry).key)
	}
}

// Len reports the number of cached snapshots.
func (c *SnapshotCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// SnapshotStats is a point-in-time view of cache effectiveness.
type SnapshotStats struct {
	Hits    uint64 `json:"hits"`    // simulations resumed from a cached warm state
	Misses  uint64 `json:"misses"`  // simulations that had to execute warmup
	Entries int    `json:"entries"` // snapshots currently held
}

// Stats reports cache effectiveness.
func (c *SnapshotCache) Stats() SnapshotStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SnapshotStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len()}
}

// UseSnapshots attaches a warm-state snapshot cache: simulations restore a
// cached warmup state when one exists, and publish their own warmup state
// after completing cleanly — a run that errors or is cancelled never
// snapshots, mirroring the memo and store invariants. Attach before
// concurrent use; nil detaches.
func (se *Session) UseSnapshots(c *SnapshotCache) {
	se.mu.Lock()
	se.snaps = c
	se.mu.Unlock()
}

// Snapshots returns the attached snapshot cache (nil when none).
func (se *Session) Snapshots() *SnapshotCache {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.snaps
}

// runWithSnapshots is the simulate loop with warm-state reuse. On a cache
// hit the sim starts from the restored warmup boundary; on a miss it runs
// warmup itself, captures the boundary state, and commits it to the cache
// only after the whole run succeeds. Both paths produce the exact machine
// state the straight Run(Warmup, Measure) would: Restore reinstates every
// bit of mutable state, Advance targets absolute commit counts, and pausing
// between cycles is state-neutral.
func (se *Session) runWithSnapshots(ctx context.Context, snaps *SnapshotCache, spec Spec, sim *pipeline.Sim, traceLen uint64, rt *runRec) (*pipeline.Stats, error) {
	key, ok := se.snapKey(spec)
	if !ok {
		// Unkeyable (unknown kernel): fall through to the plain paths, which
		// surface the real error.
		if rt == nil && ctx.Done() == nil {
			return sim.Run(se.Warmup, se.Measure)
		}
		return se.runCancellable(ctx, sim, traceLen, rt)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := se.Warmup + se.Measure
	if total > traceLen {
		total = traceLen
	}

	t0 := time.Now()
	snap := snaps.get(key)
	hit := snap != nil
	rt.lookup(obs.StageSnapshot, obs.TierSnapshot, hit, time.Since(t0))
	if rt != nil {
		rt.o.countSnapshot(hit)
	}
	if hit {
		t0 = time.Now()
		sim.Restore(snap)
		// A restored warmup: the phase happened, it just cost a Restore.
		rt.phase(obs.StageWarmup, obs.TierSnapshot, time.Since(t0))
		t0 = time.Now()
		st, err := se.advanceChunked(ctx, sim, total)
		if err != nil {
			return nil, err
		}
		rt.phase(obs.StageMeasure, obs.TierSimulated, time.Since(t0))
		return st, nil
	}

	t0 = time.Now()
	st, err := sim.Run(se.Warmup, 0)
	if err != nil {
		return nil, err
	}
	newSnap := sim.Snapshot()
	rt.phase(obs.StageWarmup, obs.TierSimulated, time.Since(t0))
	t0 = time.Now()
	if st.Committed < total {
		if st, err = se.advanceChunked(ctx, sim, total); err != nil {
			return nil, err // cancelled or deadlocked: never snapshot
		}
	}
	rt.phase(obs.StageMeasure, obs.TierSimulated, time.Since(t0))
	snaps.put(key, newSnap)
	return st, nil
}

// advanceChunked drives sim to the absolute commit target. Without a
// cancellable context it advances in one piece; otherwise it checks ctx
// every cancelChunk µops, exactly like runCancellable's measurement loop.
func (se *Session) advanceChunked(ctx context.Context, sim *pipeline.Sim, total uint64) (*pipeline.Stats, error) {
	st := sim.Stats()
	if ctx.Done() == nil {
		if st.Committed >= total {
			return sim.Advance(0) // refresh the cycle stamp
		}
		return sim.Advance(total - st.Committed)
	}
	if st.Committed >= total {
		return sim.Advance(0)
	}
	for st.Committed < total {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := total - st.Committed
		if n > cancelChunk {
			n = cancelChunk
		}
		var err error
		if st, err = sim.Advance(n); err != nil {
			return nil, err
		}
	}
	return st, nil
}
