// Package fleet is the sharded serving tier (DESIGN.md §12): a client-side
// front that consistent-hashes canonical spec identities across N vpserved
// shards, each with its own worker slots and memo. Routing keeps every
// distinct spec on exactly one warm shard (memo and store locality),
// scatter/gather batching amortizes the HTTP round trip over whole
// sub-batches, and health probing (/v1/healthz) marks shards down or
// draining so work re-routes without changing results. The front calls a
// shard only for batch-sync frames, program uploads and health probes.
// Reachable from outside the module via repro.OpenShardedRunner.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerShard is the virtual-node count per shard: enough points that
// key ownership spreads within a few percent of uniform for small N, small
// enough that ring construction stays trivial.
const vnodesPerShard = 128

// ring is a consistent-hash ring over shard indices. Points are virtual
// nodes hashed from the shard's stable name (its base URL), NOT its slice
// index, so adding or losing one shard moves only the keys that shard
// owned — the rest of the fleet keeps its warm memo working set.
type ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// newRing builds the ring from the shards' stable names, in index order.
func newRing(names []string) *ring {
	r := &ring{shards: len(names)}
	r.points = make([]ringPoint, 0, len(names)*vnodesPerShard)
	for i, name := range names {
		for v := 0; v < vnodesPerShard; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(fmt.Sprintf("%s#%d", name, v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Ties (vanishingly rare with 64-bit hashes) break on shard index so
		// the ring order is fully deterministic.
		return r.points[a].shard < r.points[b].shard
	})
	return r
}

// candidates returns every shard index in ring order starting at the point
// owning key: candidates(key)[0] is the owner, and the rest is the
// deterministic failover order a router walks when the owner is down or
// draining. The slice always holds every shard exactly once.
func (r *ring) candidates(key string) []int {
	out := make([]int, 0, r.shards)
	if r.shards == 0 {
		return out
	}
	seen := make([]bool, r.shards)
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(out) < r.shards; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// owner returns the shard index owning key.
func (r *ring) owner(key string) int { return r.candidates(key)[0] }
