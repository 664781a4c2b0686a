package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/kernels"
	"repro/internal/store"
	"repro/internal/wirejson"
)

// StoreVersion is the simulator version token persisted entries are keyed
// and verified under. Bump it whenever pipeline, core, or kernels semantics
// change — anything that could make an old record differ from what the
// current simulator would produce — and every stale entry silently becomes
// a miss instead of a wrong answer.
const StoreVersion = "vpsim-v2"

// Store returns the session's persistent store (nil when none).
func (se *Session) Store() *store.Store { return se.store }

// Identity renders the canonical spec as its human-readable identity: the
// string a store entry's key is derived from and records, re-verified on
// load so a key collision degrades to a miss, and the spec trace spans
// carry.
func (s Spec) Identity() string {
	return fmt.Sprintf("%s/%s/counters=%d/recovery=%d/width=%d/loads_only=%t/max_hist=%d/fpc_vec=%s",
		s.Kernel, s.Predictor, s.Counters, s.Recovery, s.Width, s.LoadsOnly, s.MaxHist, s.FPCVec)
}

// workloadFingerprint hashes the workload's encoded program, so a kernel
// whose generated code changes invalidates its entries even without a
// version bump. A prog: reference carries its fingerprint in the reference
// itself (it IS the content hash), which keeps store keys for uploaded
// programs stable across processes — a fresh daemon can serve a warm store
// entry for a program before anyone re-registers it. A builtin's fingerprint
// is computed once per session, behind a per-workload singleflight: a
// batch's workers reach the same kernel together, and all but one wait for
// its hash. There is deliberately no process-wide cache, so a fresh session
// pays what a fresh process pays.
func (se *Session) workloadFingerprint(workload string) (string, bool) {
	if IsProgramRef(workload) {
		if checkProgramRef(workload) != nil {
			return "", false
		}
		return strings.TrimPrefix(workload, progRefPrefix), true
	}
	se.mu.Lock()
	c, ok := se.fps[workload]
	if !ok {
		c = &fpCall{done: make(chan struct{})}
		se.fps[workload] = c
	}
	se.mu.Unlock()
	if ok {
		<-c.done
		return c.fp, c.ok
	}

	if k, found := kernels.ByName(workload); found {
		sum := sha256.Sum256(k.Build().Encode())
		c.fp, c.ok = hex.EncodeToString(sum[:]), true
	} else {
		// An unknown name keeps no slot: one per bogus name a caller sends
		// would grow the map without bound.
		se.mu.Lock()
		delete(se.fps, workload)
		se.mu.Unlock()
	}
	close(c.done)
	return c.fp, c.ok
}

// storeKey derives the entry key for spec under this session: canonical spec
// identity, workload fingerprint, the session's measurement windows (window
// sizing is session-wide state that determines the result), and the
// simulator version token. ok is false when the spec cannot be keyed
// (unknown kernel) — the caller falls through to simulate, which reports the
// real error.
func (se *Session) storeKey(spec Spec) (key store.Key, id string, ok bool) {
	fp, ok := se.workloadFingerprint(spec.Kernel)
	if !ok {
		return store.Key{}, "", false
	}
	id = spec.Identity()
	windows := fmt.Sprintf("warmup=%d/measure=%d", se.warmup, se.measure)
	return store.KeyOf(id, fp, windows, StoreVersion), id, true
}

// storeLoad is the read-through: probe the session's store for spec's
// persisted stats. Any load failure — missing, corrupt, stale version,
// mismatched identity, a payload parseStats rejects — reports false and the
// caller simulates.
func (se *Session) storeLoad(spec Spec) (*Result, bool) {
	key, id, ok := se.storeKey(spec)
	if !ok {
		return nil, false
	}
	res := &Result{Spec: spec}
	if !se.store.Get(key, id, func(s *wirejson.Scanner) bool { return parseStats(s, &res.Stats) }) {
		return nil, false
	}
	return res, true
}

// storeSave is the write-behind: persist a freshly simulated result.
// Best-effort — a failed write is counted in the store's own stats and only
// costs a future process a re-simulation.
func (se *Session) storeSave(spec Spec, r *Result) {
	key, id, ok := se.storeKey(spec)
	if !ok {
		return
	}
	_ = se.store.Put(key, id, r.Stats)
}
