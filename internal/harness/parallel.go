package harness

import (
	"sync"
	"sync/atomic"
)

// Each calls do(i) for every i in [0, n) and returns once every call has
// returned. It hands the indexes out in order to min(Workers(), n)
// goroutines. The session's slots, not the walkers, bound simulation:
// do(i) takes a slot only when its RunCtx wins ownership of a memo entry,
// so a walker waiting on another caller's run holds none and the slots stay
// busy with other work. The walkers are bounded too because a goroutine per
// index slows the warm paths: hundreds of goroutines would contend for a
// few slots over microseconds of work each.
func (se *Session) Each(n int, do func(i int)) {
	w := min(se.Workers(), n)
	if w <= 1 {
		for i := range n {
			do(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// DedupSpecs returns specs with exact duplicates removed, keeping
// first-appearance order — the one definition of "unique specs" vpbench and
// the tests share. Declared spec sets repeat per-kernel baselines across
// figure halves; the memo makes the duplicates free at run time, but
// counting or costing a batch wants them gone.
func DedupSpecs(specs []Spec) []Spec {
	seen := make(map[Spec]bool, len(specs))
	out := make([]Spec, 0, len(specs))
	for _, sp := range specs {
		if !seen[sp] {
			seen[sp] = true
			out = append(out, sp)
		}
	}
	return out
}
