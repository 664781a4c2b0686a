package main

import (
	"crypto/sha256"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// calibDur is the length of one reading of the host's speed. A run reads
// it before and after its setups, after the first sample that ends
// calibEvery or more after the last reading, and after its last sample.
const (
	calibDur   = 300 * time.Millisecond
	calibEvery = 1500 * time.Millisecond
)

// nominalCalib is the reference loop's rate, in iterations per second, on
// the host the bounds were set on (2 vCPUs, no contention from
// neighbours): the speed the end-to-end metrics are scaled to.
const nominalCalib = 13700

// calibrate runs the reference loop on the benchmark's workers for d and
// returns its rate in iterations per second. The loop calls only the
// standard library, so it does the same work on every commit; what moves
// its rate is the host: a shared machine's neighbours contending for its
// cores and caches. On such a host it tracks the workloads' own speed
// closely (a slope near 1 against simulation, serving and store reads
// alike), where a memory-latency or bandwidth loop tracks them worse.
func calibrate(d time.Duration) float64 {
	var total atomic.Int64
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	for g := range workers {
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newCalibState(uint64(g) + 1)
			ready.Done()
			<-start
			deadline := time.Now().Add(d)
			var n int64
			for time.Now().Before(deadline) {
				s.iter()
				n++
			}
			total.Add(n)
		}()
	}
	ready.Wait() // the reference data is built outside the timed window
	t0 := time.Now()
	close(start)
	wg.Wait()
	return float64(total.Load()) / time.Since(t0).Seconds()
}

// calibState is one worker's reference data.
type calibState struct {
	x    uint64
	keys []uint64
	m    map[uint64]uint64
	buf  []byte
}

func newCalibState(seed uint64) *calibState {
	return &calibState{
		x:    seed,
		keys: make([]uint64, 2048),
		m:    make(map[uint64]uint64, 4096),
		buf:  make([]byte, 4<<10),
	}
}

// iter is one iteration: sort pseudo-random keys, fold them into a hash
// map, hash a buffer.
func (s *calibState) iter() {
	for i := range s.keys {
		s.x = s.x*6364136223846793005 + 1442695040888963407
		s.keys[i] = s.x >> 11
	}
	slices.Sort(s.keys)
	for _, k := range s.keys {
		s.m[k&4095] += k
	}
	sum := sha256.Sum256(s.buf)
	s.buf[sum[1]] ^= sum[0]
}

// hostSpeed is the run's host speed relative to the nominal host: the
// median reading over the nominal rate. Below 1 the host was slower than
// nominal, so measured times are scaled down (and rates up) by it.
func hostSpeed(readings []float64) float64 {
	return median(readings) / nominalCalib
}
