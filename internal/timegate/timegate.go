// Package timegate times the two sides of a test's speed-ratio gate so that
// other work on the machine does not decide the verdict.
//
// Inside `go test ./...` other packages build and test on the same CPUs.
// One busy thread elsewhere is enough to slow one side of a ratio more than
// the other: on two CPUs the OS scheduler may leave that thread a CPU of its
// own and squeeze the side being timed onto the other. So Pairs times pairs
// of rounds, one round of each side, only while this process can get the
// CPUs it is timing (cpusFree): before a pair it waits for them, and a pair
// after which they are busy again is timed again. It alternates the sides'
// order from pair to pair, and the caller gates the ratio of the two sides'
// median round times. Once it has waited 30 s it waits no more and keeps
// every pair, so a machine that stays busy still gets the gate. A pair is
// never dropped because of its own times, so a gate cannot pass by
// discarding the rounds that would fail it.
//
// Two gates in two test processes would each read the other's probe and
// rounds as busy CPUs, so Pairs holds an exclusive file lock for its whole
// run (where flock exists): concurrent gates take turns, and the 30 s wait
// starts once the lock is held.
package timegate

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// wait bounds how long Pairs waits for free CPUs: long enough for the rest
// of a `go test ./...` run to finish.
const wait = 30 * time.Second

// Pairs times n pairs of rounds of a and b, a first in even pairs and b
// first in odd ones, each pair only while cpusFree reports the CPUs this
// process can use, min(GOMAXPROCS, NumCPU), free (see the package comment).
// It returns each side's round times in pair order and how many CPU checks
// found the CPUs busy.
func Pairs(n int, a, b func() time.Duration) (as, bs []time.Duration, busy int) {
	defer lock()()
	cpus := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	deadline := time.Now().Add(wait)
	for len(as) < n {
		for time.Now().Before(deadline) && !cpusFree(cpus) {
			busy++
			time.Sleep(250 * time.Millisecond)
		}
		var da, db time.Duration
		if len(as)%2 == 0 {
			da, db = a(), b()
		} else {
			db, da = b(), a()
		}
		if time.Now().Before(deadline) && !cpusFree(cpus) {
			busy++
			continue // other work took CPUs during the pair: time it again
		}
		as, bs = append(as, da), append(bs, db)
	}
	return as, bs, busy
}

// cpusFree reports whether n goroutines of pure computation, each doing
// one goroutine's work (about 50 ms of it), finish within 10/9 of one
// goroutine's time: whether this process can get n CPUs right now.
func cpusFree(n int) bool {
	spin := func(goroutines int) time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		for range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := uint64(1)
				for range 20_000_000 {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				spinSink.Add(x)
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	one := spin(1)
	return spin(n) <= one*10/9
}

// spinSink keeps cpusFree's loops from being optimized away.
var spinSink atomic.Uint64

// Median returns the middle of ds (the upper middle for an even count).
func Median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
